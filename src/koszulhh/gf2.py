"""Exact linear algebra over GF(2).

Vectors and matrix rows are Python integers used as bitsets: bit ``j`` is
column ``j``, so a row exclusive-or is one machine-assisted big-int operation.
Elimination follows a fixed pivot rule (leftmost nonzero column, topmost
remaining row), which makes ranks, kernels and solutions reproducible across
runs.

>>> m = BitMatrix.from01(["110", "011", "101"])
>>> m.rank()
2
>>> [v.to01() for v in BitMatrix.from01(["111"]).kernel_basis()]
['110', '101']
>>> BitMatrix.from01(["11"]).solve(1).to01()
'10'
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator


def _lsb_index(x: int) -> int:
    return (x & -x).bit_length() - 1


class BitVector:
    """An immutable GF(2) vector of fixed length backed by an int bitset."""

    __slots__ = ("length", "bits")

    def __init__(self, length: int, bits: int = 0):
        if length < 0:
            raise ValueError("vector length must be nonnegative")
        if bits < 0 or bits >> length:
            raise ValueError("bit pattern does not fit the stated length")
        self.length = length
        self.bits = bits

    @classmethod
    def from01(cls, text: str) -> "BitVector":
        """Parse a left-to-right 0/1 string; leftmost character is entry 0."""
        bits = 0
        for i, ch in enumerate(text):
            if ch == "1":
                bits |= 1 << i
            elif ch != "0":
                raise ValueError(f"invalid bit character {ch!r}")
        return cls(len(text), bits)

    def to01(self) -> str:
        return "".join("1" if (self.bits >> i) & 1 else "0" for i in range(self.length))

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.length != other.length:
            raise ValueError("length mismatch")
        return BitVector(self.length, self.bits ^ other.bits)

    __add__ = __xor__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitVector)
            and self.length == other.length
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.length, self.bits))

    def __bool__(self) -> bool:
        return self.bits != 0

    def weight(self) -> int:
        return self.bits.bit_count()

    def support(self) -> list[int]:
        return [i for i in range(self.length) if (self.bits >> i) & 1]

    def __repr__(self) -> str:
        return f"BitVector('{self.to01()}')"


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
        vecs = [BitVector.from01(r) for r in rows]
        if not vecs:
            return cls([], 0)
        cols = vecs[0].length
        if any(v.length != cols for v in vecs):
            raise ValueError("ragged rows")
        return cls([v.bits for v in vecs], cols)

    @classmethod
    def from_vectors(cls, vecs: Iterable[BitVector], cols: int | None = None) -> "BitMatrix":
        vecs = list(vecs)
        if cols is None:
            if not vecs:
                raise ValueError("column count required for an empty matrix")
            cols = vecs[0].length
        if any(v.length != cols for v in vecs):
            raise ValueError("ragged rows")
        return cls([v.bits for v in vecs], cols)

    @classmethod
    def zeros(cls, nrows: int, cols: int) -> "BitMatrix":
        return cls([0] * nrows, cols)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls([1 << i for i in range(n)], n)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def row(self, i: int) -> BitVector:
        return BitVector(self.cols, self.rows[i])

    def __iter__(self) -> Iterator[BitVector]:
        return (BitVector(self.cols, r) for r in self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.cols == other.cols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.rows, self.cols))

    def mul_vec(self, v: int | BitVector) -> int:
        """Matrix-vector product; ``v`` and the result are int bitsets."""
        if isinstance(v, BitVector):
            v = v.bits
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

    def stack(self, other: "BitMatrix") -> "BitMatrix":
        if self.cols != other.cols:
            raise ValueError("column mismatch")
        return BitMatrix(self.rows + other.rows, self.cols)

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
        """Reduced row echelon basis: pivot column -> fully reduced row."""
        if self._rref is not None:
            return self._rref
        basis: dict[int, int] = {}
        for r in self.rows:
            while r:
                p = _lsb_index(r)
                b = basis.get(p)
                if b is None:
                    basis[p] = r
                    break
                r ^= b
        # back-substitute so every pivot column appears in exactly one row
        for p in sorted(basis):
            row = basis[p]
            for p2 in basis:
                if p2 != p and (basis[p2] >> p) & 1:
                    basis[p2] ^= row
        self._rref = basis
        return basis

    def rank(self) -> int:
        return len(self._reduced())

    def kernel_basis(self) -> list[BitVector]:
        """Basis of ``{x : m @ x = 0}``, ordered by free column index."""
        basis = self._reduced()
        pivots = set(basis)
        out = []
        for f in range(self.cols):
            if f in pivots:
                continue
            v = 1 << f
            for p, row in basis.items():
                if (row >> f) & 1:
                    v |= 1 << p
            out.append(BitVector(self.cols, v))
        return out

    def solve(self, b: int | BitVector) -> BitVector | None:
        """One solution of ``m @ x = b`` (free variables zero), or None."""
        if isinstance(b, BitVector):
            if b.length != self.nrows:
                raise ValueError("right-hand side length mismatch")
            b = b.bits
        aug = self.cols
        basis: dict[int, int] = {}
        for i, r in enumerate(self.rows):
            r |= ((b >> i) & 1) << aug
            while r:
                p = _lsb_index(r)
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
        return BitVector(self.cols, x)

    def __repr__(self) -> str:
        return f"BitMatrix({self.nrows}x{self.cols})"


def rank(m: BitMatrix) -> int:
    return m.rank()


def kernel_basis(m: BitMatrix) -> list[BitVector]:
    return m.kernel_basis()


def solve(m: BitMatrix, b: int | BitVector) -> BitVector | None:
    return m.solve(b)


class EchelonBasis:
    """Incremental row basis, forward elimination pivoting on the highest set bit.

    Rows are column bitmasks; every stored row has its own leading column.
    Bulk integer xors make this the fastest route for wide matrices with
    banded supports, and the high pivot keeps stored rows no wider than their
    leading column.  A sum of stored rows leads with the largest leading
    column among them, so the rows leading below a column f span exactly the
    vectors of the row space supported below f.  Hence the pivot set depends
    only on the row space, not on insertion order, and the number of pivots
    >= f is the rank of the rows restricted to the columns >= f.

    >>> b = EchelonBasis()
    >>> b.extend([0b011, 0b110, 0b101])
    >>> b.rank, b.pivots()
    (2, [1, 2])
    """

    __slots__ = ("_rows",)

    def __init__(self):
        self._rows: dict[int, int] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    def extend(self, int_rows: Iterable[int]) -> None:
        basis = self._rows
        for r in int_rows:
            while r:
                p = r.bit_length() - 1
                b = basis.get(p)
                if b is None:
                    basis[p] = r
                    break
                r ^= b

    def pivots(self) -> list[int]:
        """Leading columns of the stored rows, ascending."""
        return sorted(self._rows)


def echelon_rank(int_rows: Iterable[int]) -> int:
    """Rank of a GF(2) matrix whose rows are given as column bitmasks.

    The rows are consumed as they come and reduced into an ``EchelonBasis``;
    no echelon basis is returned.
    """
    basis = EchelonBasis()
    basis.extend(int_rows)
    return basis.rank


def sparse_rank(row_supports: Iterable[Iterable[int]], num_cols: int | None = None) -> int:
    """Rank of a sparse GF(2) matrix given as per-row column supports.

    Gaussian elimination with pivot selection tuned for the very sparse,
    block-structured matrices produced by cochain differentials: singleton
    rows and columns are eliminated first (zero fill), then pivots are chosen
    by a Markowitz-style least-fill heuristic.
    """
    rows: list[set[int]] = [set(s) for s in row_supports]
    if num_cols is None:
        num_cols = max((max(s) for s in rows if s), default=-1) + 1
    cols: list[set[int]] = [set() for _ in range(num_cols)]
    for ri, s in enumerate(rows):
        for c in s:
            cols[c].add(ri)

    rank_count = 0
    pending: deque[tuple[str, int]] = deque()
    for ri, s in enumerate(rows):
        if len(s) == 1:
            pending.append(("r", ri))
    for ci, s in enumerate(cols):
        if len(s) == 1:
            pending.append(("c", ci))

    def kill_row(ri: int) -> None:
        for c in rows[ri]:
            cc = cols[c]
            cc.discard(ri)
            if len(cc) == 1:
                pending.append(("c", c))
        rows[ri] = set()

    def kill_col(ci: int) -> None:
        for r in cols[ci]:
            rr = rows[r]
            rr.discard(ci)
            if len(rr) == 1:
                pending.append(("r", r))
        cols[ci] = set()

    def eliminate(ri: int, ci: int) -> None:
        """Use entry (ri, ci) as a pivot, then delete its row and column."""
        nonlocal rank_count
        rank_count += 1
        prow = rows[ri]
        for r2 in list(cols[ci]):
            if r2 == ri:
                continue
            row2 = rows[r2]
            for c in prow:
                if c in row2:
                    row2.discard(c)
                    cols[c].discard(r2)
                    if len(cols[c]) == 1:
                        pending.append(("c", c))
                else:
                    row2.add(c)
                    cols[c].add(r2)
            if len(row2) == 1:
                pending.append(("r", r2))
        kill_row(ri)
        kill_col(ci)

    alive_rows = {ri for ri, s in enumerate(rows) if s}
    while True:
        while pending:
            kind, idx = pending.popleft()
            if kind == "r":
                s = rows[idx]
                if len(s) != 1:
                    continue
                eliminate(idx, next(iter(s)))
                alive_rows.discard(idx)
            else:
                s = cols[idx]
                if len(s) != 1:
                    continue
                ri = next(iter(s))
                eliminate(ri, idx)
                alive_rows.discard(ri)
        alive_rows = {ri for ri in alive_rows if rows[ri]}
        if not alive_rows:
            break
        # Markowitz-style pick: cheapest row, then its cheapest column.
        best_row = min(alive_rows, key=lambda ri: (len(rows[ri]), ri))
        best_col = min(rows[best_row], key=lambda ci: (len(cols[ci]), ci))
        eliminate(best_row, best_col)
        alive_rows.discard(best_row)
    return rank_count
