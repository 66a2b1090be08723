"""Exact linear algebra over GF(2).

Vectors and matrix rows are plain Python integers used as bitsets: bit
``j`` is column ``j``, so a row exclusive-or is one machine-assisted big-int
operation.

Every dense elimination runs through ``EchelonBasis``, whose pivot side is
fixed per instance.  Highest-bit pivots (the default) serve ``echelon_rank``,
the bar-complex oracle, whose filtration needs the rank of every column
suffix, and the Koszul span oracle.  Lowest-bit pivots serve ``BitMatrix``
and the Massey code: they fix the kernel bases (ordered by free column), the
solutions with free variables zero and the canonical representatives of
Massey product classes.  A ``BitMatrix`` is eliminated once, as the
reduced echelon form of ``[m | I]``, and its kernel basis and every solve
read that one form; its rank is ``echelon_rank`` of its plain rows.  A matrix with at most two entries per row, the
Koszul cochain differentials and strand matrices, is stored as one pair of
index arrays ``first``, ``second`` (-1 for an absent entry, ``index_code``
for the type) and gets its rank and kernel from one union-find instead
(``pair_components``, ``sparse_rank``).  The union-find is one
``index_code`` array of parents, four bytes a column from 128 columns.  A
merge's root is the smaller index and path halving only moves a parent to
an ancestor, so a column's parent is never above it: a root is a column
that is its own parent, ``sparse_rank`` counts those without a find per
column, and ``pair_components`` takes every column to its root in one
ascending pass and returns that root array.

The one text format for a vector is a 0/1 string whose leftmost character
is entry 0, read by ``from01`` and written by ``to01``:

>>> from01("1101")
11
>>> to01(11, 6)
'110100'
>>> m = BitMatrix.from01(["110", "011", "101"])
>>> m.rank()
2
>>> [to01(v, 3) for v in BitMatrix.from01(["111"]).kernel_basis()]
['110', '101']
>>> to01(BitMatrix.from01(["11"]).solve(1), 2)
'10'
"""

from __future__ import annotations

from array import array
from operator import countOf, eq
from typing import Iterable


def _lsb_index(x: int) -> int:
    return (x & -x).bit_length() - 1


_BIT_CHARS = frozenset("01")


def from01(text: str) -> int:
    """Parse a left-to-right 0/1 string; the leftmost character is entry 0."""
    # checked first: int(..., 2) would also take "_", spaces, signs and "0b"
    if not _BIT_CHARS.issuperset(text):
        bad = next(ch for ch in text if ch not in _BIT_CHARS)
        raise ValueError(f"invalid bit character {bad!r}")
    return int(text[::-1], 2) if text else 0


def to01(bits: int, length: int) -> str:
    """The 0/1 string of ``length`` entries whose entry ``j`` is bit ``j``."""
    if bits < 0 or bits >> length:
        raise ValueError("bit pattern does not fit the stated length")
    return format(bits, "b").zfill(length)[::-1] if length else ""


class BitMatrix:
    """A GF(2) matrix stored as a tuple of integer rows.

    Rows index equations, columns index unknowns.  ``solve`` treats the
    matrix as a linear system ``m @ x = b`` and ``kernel_basis`` returns the
    right null space.
    """

    __slots__ = ("rows", "cols", "_rref")

    def __init__(self, rows: Iterable[int], cols: int):
        self.rows = tuple(rows)
        self.cols = cols
        for r in self.rows:
            if r < 0 or r >> cols:
                raise ValueError("row does not fit the stated column count")
        self._rref = None

    @classmethod
    def from01(cls, rows: Iterable[str]) -> "BitMatrix":
        rows = list(rows)
        cols = len(rows[0]) if rows else 0
        if any(len(r) != cols for r in rows):
            raise ValueError("ragged rows")
        return cls([from01(r) for r in rows], cols)

    @classmethod
    def zeros(cls, nrows: int, cols: int) -> "BitMatrix":
        return cls([0] * nrows, cols)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.cols == other.cols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.rows, self.cols))

    def mul_vec(self, v: int) -> int:
        """Matrix-vector product; ``v`` and the result are int bitsets."""
        out = 0
        for i, r in enumerate(self.rows):
            if (r & v).bit_count() & 1:
                out |= 1 << i
        return out

    def transpose(self) -> "BitMatrix":
        out = [0] * self.cols
        for i, r in enumerate(self.rows):
            while r:
                j = _lsb_index(r)
                out[j] |= 1 << i
                r &= r - 1
        return BitMatrix(out, len(self.rows))

    def compose(self, other: "BitMatrix") -> "BitMatrix":
        """Return self @ other (apply ``other`` first)."""
        if self.cols != other.nrows:
            raise ValueError("dimension mismatch")
        rows = []
        for r in self.rows:
            acc = 0
            while r:
                j = _lsb_index(r)
                acc ^= other.rows[j]
                r &= r - 1
            rows.append(acc)
        return BitMatrix(rows, other.cols)

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.rows)

    # -- elimination ----------------------------------------------------

    def _reduced(self) -> dict[int, int]:
        """The one elimination: pivot -> row of the reduced echelon form of
        ``[m | I]``, lowest-bit pivots.  Row i carries tag bit ``cols + i``,
        above every column, so the rows pivoting below ``cols`` are the
        reduced echelon form of ``m`` with tags saying which rows of ``m`` add
        up to them, and a tag pivot marks rows that add up to zero."""
        if self._rref is None:
            cols = self.cols
            basis = EchelonBasis(lowest=True)
            basis.extend(r | 1 << (cols + i) for i, r in enumerate(self.rows))
            basis.back_substitute()
            self._rref = basis.rows
        return self._rref

    def rank(self) -> int:
        """The rank alone needs no tags: one plain elimination of the rows."""
        return echelon_rank(self.rows)

    def kernel_basis(self) -> list[int]:
        """Basis of ``{x : m @ x = 0}``, ordered by free column index."""
        # below cols a pivot row holds its pivot and free columns only, and a
        # row with a tag pivot is zero there, so it adds nothing
        basis = self._reduced()
        out = {f: 1 << f for f in range(self.cols) if f not in basis}
        below = (1 << self.cols) - 1
        for p, row in basis.items():
            free = row & below & ~(1 << p)
            while free:
                out[_lsb_index(free)] |= 1 << p
                free &= free - 1
        return list(out.values())

    def solve(self, b: int) -> int | None:
        """One solution of ``m @ x = b`` (free variables zero), or None.

        Each call only reads the parity of ``b`` on the row sets that the
        tags of the reduced ``[m | I]`` record: ``b`` moved onto the tags.
        """
        cols = self.cols
        b <<= cols
        x = 0
        for p, row in self._reduced().items():
            if (row & b).bit_count() & 1:
                if p >= cols:
                    return None
                x |= 1 << p
        return x

    def __repr__(self) -> str:
        return f"BitMatrix({self.nrows}x{self.cols})"


class EchelonBasis:
    """Incremental GF(2) row basis: the one elimination loop of the package.

    Rows are column bitmasks.  Every stored row has its own pivot: its
    highest set bit by default, its lowest with ``lowest=True``.  A sum of
    stored rows has the most extreme of their pivots as its pivot, so the
    pivot set is the set of pivots of the whole row space and does not
    depend on insertion order.  With highest-bit pivots, the rows pivoting
    below a column f span the row vectors supported below f, so the number
    of pivots >= f is the rank of the rows restricted to the columns >= f;
    bulk integer xors then keep stored rows no wider than their pivot, which
    suits wide banded matrices fed as a stream.

    >>> b = EchelonBasis()
    >>> b.extend([0b011, 0b110, 0b101])
    >>> b.rank, b.pivots()
    (2, [1, 2])
    >>> bin(b.reduce(0b111))
    '0b1'
    """

    __slots__ = ("rows", "lowest")

    def __init__(self, lowest: bool = False):
        self.rows: dict[int, int] = {}  # pivot column -> stored row
        self.lowest = lowest

    @property
    def rank(self) -> int:
        return len(self.rows)

    def extend(self, int_rows: Iterable[int]) -> None:
        """Insert rows in order; one that reduces to zero is dropped."""
        basis = self.rows
        lowest = self.lowest
        for r in int_rows:
            while r:
                p = (r & -r if lowest else r).bit_length() - 1
                b = basis.get(p)
                if b is None:
                    basis[p] = r
                    break
                r ^= b

    def reduce(self, r: int) -> int:
        """The remainder of ``r`` modulo the row space.

        It is the one vector of the coset ``r + span`` that is zero at every
        pivot, so it is the same for every element of that coset.
        """
        basis = self.rows
        lowest = self.lowest
        rest = 0
        while r:
            bit = r & -r if lowest else 1 << (r.bit_length() - 1)
            b = basis.get(bit.bit_length() - 1)
            if b is None:
                rest |= bit
                r ^= bit
            else:
                r ^= b
        return rest

    def back_substitute(self) -> None:
        """Clear every pivot column from the other rows, in place.

        The rows are then the reduced row echelon form, which depends only
        on the row space and the pivot side.
        """
        basis = self.rows
        for p, r in basis.items():
            bit = 1 << p
            basis[p] = bit | self.reduce(r ^ bit)

    def pivots(self) -> list[int]:
        """Pivot columns of the stored rows, ascending."""
        return sorted(self.rows)


def echelon_rank(int_rows: Iterable[int]) -> int:
    """Rank of a GF(2) matrix whose rows are given as column bitmasks.

    The rows are consumed as they come and reduced into an ``EchelonBasis``;
    no echelon basis is returned.
    """
    basis = EchelonBasis()
    basis.extend(int_rows)
    return basis.rank


def index_code(n: int) -> str:
    """``array`` type code for indices below n and -1: one byte below 128,
    four below 2**31, eight from there."""
    return "b" if n < 1 << 7 else "i" if n < 1 << 31 else "q"


def _components(first, second, n_cols: int) -> tuple[array, bytearray]:
    """Union-find over the columns of a pair matrix: (parent, forced).

    A two-entry row joins its columns' sets under the smaller root, and a
    one-entry row marks its column's root forced; a merge moves the mark of
    the larger root to the smaller one, so marks sit on roots only.  Path
    halving moves a parent to an ancestor, so ``parent[c] <= c`` throughout
    and c is a root exactly when ``parent[c] == c``.
    """
    parent = array(index_code(n_cols), range(n_cols))
    forced = bytearray(n_cols)

    def find(a: int) -> int:
        while (p := parent[a]) != a:
            parent[a] = a = parent[p]
        return a

    for a, b in zip(first, second):
        if a < 0:
            if b >= 0:
                forced[find(b)] = 1
        elif b < 0:
            forced[find(a)] = 1
        else:
            ra, rb = find(a), find(b)
            if ra != rb:
                if ra > rb:
                    ra, rb = rb, ra
                parent[rb] = ra
                if forced[rb]:
                    forced[rb] = 0
                    forced[ra] = 1
    return parent, forced


def pair_components(first, second, n_cols: int) -> tuple[array, list[int]]:
    """Rank and kernel of a GF(2) matrix with at most two entries per row.

    Row i has its entries at columns ``first[i]`` and ``second[i]``, with -1
    for an absent entry.  A two-entry row joins its columns, a one-entry row
    forces its column to zero, and each component no row forces carries one
    kernel vector: the sum of its columns.  Returns each column's root, the
    smallest column of its component, as an array, and the roots of the free
    components, ascending; the rank is ``n_cols`` minus their number.  Since
    a parent is never above its column, one ascending pass of
    ``parent[c] = parent[parent[c]]`` takes every column to its root.
    """
    roots, forced = _components(first, second, n_cols)
    for c in range(n_cols):
        roots[c] = roots[roots[c]]
    return roots, [c for c, r in enumerate(roots) if r == c and not forced[c]]


def sparse_rank(first, second, n_cols: int) -> int:
    """Rank of a GF(2) matrix with at most two entries per row: ``n_cols``
    minus the components, plus the forced ones, counted off the union-find
    with no pass in Python over the columns."""
    parent, forced = _components(first, second, n_cols)
    return n_cols - countOf(map(eq, parent, range(n_cols)), True) + forced.count(1)
