"""Finite differential graded algebras over GF(2) and Massey products.

A :class:`DgAlgebra` stores one basis per degree up to a truncation bound,
the differentials as bit matrices and the multiplication as a table over
basis pairs.  Products landing above the truncation bound are zero, which
keeps the quotient honest: the axioms are validated inside the window.  The
algebra holds whether its differential is zero and, per degree pair, the
rows of basis products that its product reads; a zero factor returns at once.

On top of that sit defining systems for n-fold Massey products, the
enumeration of every defining system for small inputs (each interior
entry's cocycle sums walked in Gray-code order, so that a step moves each
relation term the entry completes by one stored product, and the walks
driven by one loop, so no entry costs a stack frame), the statistical
check that products with vanishing neighbouring cups vanish, and the
transfer of cocycles, coboundaries and whole defining systems backwards
along a surjective quasi-isomorphism, where each lift is one solve of the
source differential stacked on the map; the map keeps one stack per degree,
so the lifts into a degree share one elimination.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

from .algebra import ConnectedSumAlgebra, GradedElement, action
from .caps import MASSEY_CAP, check_cap
from .errors import InvalidDefiningSystemError, NotACocycleError
from .gf2 import BitMatrix, EchelonBasis, from01, to01


def _columns_matrix(columns: list[int], nrows: int) -> BitMatrix:
    """Matrix whose j-th column is the given bit pattern over ``nrows``."""
    return BitMatrix(columns, nrows).transpose()


class DgAlgebra:
    """A unital dg algebra with chosen bases, truncated above ``top``.

    ``dims[d]`` is the basis size in degree ``d`` for ``0 <= d <= top``.
    ``diffs[d]`` maps degree ``d`` to ``d + 1`` (so there are ``top`` of
    them); ``mult`` maps a basis pair key ``(d1, i1, d2, i2)`` to the bit
    pattern of the product in degree ``d1 + d2``, with absent keys meaning
    zero.  ``unit_bits`` names the multiplicative unit in degree 0.
    """

    def __init__(
        self,
        dims: Sequence[int],
        diffs: Sequence[BitMatrix],
        mult: dict[tuple[int, int, int, int], int],
        unit_bits: int = 1,
        validate: bool = True,
    ):
        self.dims = tuple(int(d) for d in dims)
        if not self.dims or any(d < 0 for d in self.dims):
            raise ValueError("need one nonnegative dimension per degree")
        self.top = len(self.dims) - 1
        self.diffs = tuple(diffs)
        if len(self.diffs) != self.top:
            raise ValueError("need exactly one differential per degree below top")
        for d, mat in enumerate(self.diffs):
            if mat.nrows != self.dims[d + 1] or mat.cols != self.dims[d]:
                raise ValueError(f"differential at degree {d} has the wrong shape")
        self.mult = dict(mult)
        for (d1, i1, d2, i2), bits in self.mult.items():
            if not (0 <= i1 < self.dim(d1) and 0 <= i2 < self.dim(d2)):
                raise ValueError("multiplication key outside the basis")
            if d1 + d2 > self.top or bits >> self.dim(d1 + d2):
                raise ValueError("product value does not fit its degree")
        if unit_bits >> self.dim(0):
            raise ValueError("unit does not fit degree 0")
        self.unit = GradedElement(0, unit_bits)
        self._zero_differential = all(mat.is_zero() for mat in self.diffs)
        # _rows[(d1, d2)][i1][i2]: the product of basis vectors i1 and i2 in
        # degrees d1 and d2, tabulated from mult the first time the pair is read
        self._rows: dict[tuple[int, int], list[list[int]]] = {}
        if validate:
            self.validate()

    def dim(self, d: int) -> int:
        if 0 <= d <= self.top:
            return self.dims[d]
        return 0

    def zero(self, d: int) -> GradedElement:
        return GradedElement(d, 0)

    def element(self, d: int, bits: int) -> GradedElement:
        if bits >> self.dim(d):
            raise ValueError("bit pattern does not fit the basis in this degree")
        return GradedElement(d, bits)

    def basis(self, end: int | None = None) -> Iterator[tuple[int, int]]:
        """(degree, index) of each basis vector below degree end, all by default."""
        for d in range(self.top + 1 if end is None else end):
            for i in range(self.dims[d]):
                yield d, i

    def diff(self, a: GradedElement) -> GradedElement:
        d = a.degree
        if not a.bits or self._zero_differential or d < 0 or d >= self.top:
            return self.zero(d + 1)
        return GradedElement(d + 1, self.diffs[d].mul_vec(a.bits))

    def product(self, a: GradedElement, b: GradedElement) -> GradedElement:
        d1, d2 = a.degree, b.degree
        if d1 + d2 > self.top or not a.bits or not b.bits:
            return self.zero(d1 + d2)
        rows = self._rows.get((d1, d2))
        if rows is None:
            get = self.mult.get
            rows = self._rows[(d1, d2)] = [
                [get((d1, i, d2, j), 0) for j in range(self.dim(d2))] for i in range(self.dim(d1))
            ]
        out = 0
        abits = a.bits
        while abits:
            low = abits & -abits
            abits ^= low
            row = rows[low.bit_length() - 1]
            bbits = b.bits
            while bbits:
                low = bbits & -bbits
                bbits ^= low
                out ^= row[low.bit_length() - 1]
        return GradedElement(d1 + d2, out)

    def validate(self) -> None:
        """Check the axioms on the basis pairs and triples inside the truncation
        window, their triples first counted against caps.DEFAULT_CAP; raise on failure."""
        for d in range(self.top - 1):
            if not self.diffs[d + 1].compose(self.diffs[d]).is_zero():
                raise ValueError(f"differential does not square to zero at degree {d}")
        top, dims = self.top, self.dims
        triples = sum(
            dims[d1] * dims[d2] * dims[d3]
            for d1 in range(top + 1)
            for d2 in range(top + 1 - d1)
            for d3 in range(top + 1 - d1 - d2)
        )
        check_cap(f"dg algebra validation: {triples:,} basis triples", triples, None)
        for d1, i1 in self.basis():
            e1 = GradedElement(d1, 1 << i1)
            if self.product(self.unit, e1).bits != e1.bits:
                raise ValueError(f"left unit fails on degree {d1} basis vector {i1}")
            if self.product(e1, self.unit).bits != e1.bits:
                raise ValueError(f"right unit fails on degree {d1} basis vector {i1}")
            for d2, i2 in self.basis(top - d1):
                e2 = GradedElement(d2, 1 << i2)
                lhs = self.diff(self.product(e1, e2))
                rhs = self.product(self.diff(e1), e2) ^ self.product(e1, self.diff(e2))
                if lhs.bits != rhs.bits:
                    raise ValueError(f"Leibniz fails on degrees ({d1}, {d2}) pair ({i1}, {i2})")
        for d1, i1 in self.basis():
            e1 = GradedElement(d1, 1 << i1)
            for d2, i2 in self.basis(top + 1 - d1):
                e2 = GradedElement(d2, 1 << i2)
                left = self.product(e1, e2)
                for d3, i3 in self.basis(top + 1 - d1 - d2):
                    e3 = GradedElement(d3, 1 << i3)
                    if self.product(left, e3).bits != self.product(e1, self.product(e2, e3)).bits:
                        raise ValueError(f"associativity fails on degrees ({d1}, {d2}, {d3})")

    # Cohomology of the underlying cochain complex.

    def rank_diff(self, d: int) -> int:
        if 0 <= d < self.top:
            return self.diffs[d].rank()
        return 0

    def cocycle_basis(self, d: int) -> list[int]:
        if d < 0 or d > self.top:
            return []
        if d == self.top:
            return [1 << i for i in range(self.dims[d])]
        return self.diffs[d].kernel_basis()

    def cohomology_dim(self, d: int) -> int:
        return self.dim(d) - self.rank_diff(d) - self.rank_diff(d - 1)

    def is_cocycle(self, a: GradedElement) -> bool:
        return self.diff(a).bits == 0

    def is_coboundary(self, a: GradedElement) -> bool:
        return self.coboundary_preimage(a) is not None

    def coboundary_preimage(self, a: GradedElement) -> GradedElement | None:
        """Some ``p`` with ``diff(p) == a``, or None."""
        d = a.degree
        if not 1 <= d <= self.top:
            return self.zero(d - 1) if a.bits == 0 else None
        x = self.diffs[d - 1].solve(a.bits)
        return None if x is None else GradedElement(d - 1, x)

    def has_zero_differential(self) -> bool:
        return self._zero_differential

    def random_element(self, d: int, rng: random.Random) -> GradedElement:
        return GradedElement(d, rng.getrandbits(self.dim(d)) if self.dim(d) else 0)

    def random_cocycle(self, d: int, rng: random.Random) -> GradedElement:
        bits = 0
        for z in self.cocycle_basis(d):
            if rng.getrandbits(1):
                bits ^= z
        return GradedElement(d, bits)

    def __repr__(self) -> str:
        return f"DgAlgebra(dims={list(self.dims)})"


def product_count(alg: ConnectedSumAlgebra, top: int) -> int:
    """Number of basis products from_connected_sum(alg, top) evaluates: the
    pairs of basis elements of total degree at most top.  Every piece of
    degree >= 2 has the dimension of degree 2, so the count is a polynomial.
    """
    g, a = alg.graded_dim(1), alg.graded_dim(2)

    def upto(t: int) -> int:
        return 0 if t < 0 else 1 + g * min(t, 1) + a * max(t - 1, 0)

    t = top - 2  # the sum of upto(top - d) over d = 2 .. top
    tail = (t + 1) + g * t + a * t * (t - 1) // 2 if t >= 0 else 0
    return upto(top) + g * upto(top - 1) + a * tail


def from_connected_sum(alg: ConnectedSumAlgebra, top: int) -> DgAlgebra:
    """The graded algebra itself as a dg algebra with zero differential."""
    dims = [alg.graded_dim(d) for d in range(top + 1)]
    diffs = [BitMatrix.zeros(dims[d + 1], dims[d]) for d in range(top)]
    mult: dict[tuple[int, int, int, int], int] = {}
    for d1 in range(top + 1):
        for i1 in range(dims[d1]):
            for d2 in range(top + 1 - d1):
                for r, i2 in enumerate(action(alg, GradedElement(d1, 1 << i1), d2)):
                    if i2 >= 0:
                        mult[(d1, i1, d2, i2)] = 1 << r
    return DgAlgebra(dims, diffs, mult, unit_bits=1, validate=False)


@dataclass
class DgMap:
    """A degreewise linear map of dg algebras over a common truncation."""

    source: DgAlgebra
    target: DgAlgebra
    mats: tuple[BitMatrix, ...]

    def __post_init__(self):
        if self.source.top != self.target.top:
            raise ValueError("source and target must share the truncation degree")
        if len(self.mats) != self.source.top + 1:
            raise ValueError("need one matrix per degree")
        for d, mat in enumerate(self.mats):
            if mat.nrows != self.target.dim(d) or mat.cols != self.source.dim(d):
                raise ValueError(f"matrix at degree {d} has the wrong shape")

    @cached_property
    def lift_stacks(self) -> tuple[BitMatrix, ...]:
        """Per degree d, the source differential's rows at d stacked on the
        map's, so every lift into degree d reads the one reduced ``[m | I]``
        of its stack."""
        src = self.source
        return tuple(
            BitMatrix((src.diffs[d].rows if d < src.top else ()) + self.mats[d].rows, src.dim(d))
            for d in range(src.top + 1)
        )

    def apply(self, a: GradedElement) -> GradedElement:
        if a.degree > self.source.top:
            return GradedElement(a.degree, 0)
        return GradedElement(a.degree, self.mats[a.degree].mul_vec(a.bits))

    def validate(self) -> None:
        """Chain map, multiplicative and unit-preserving; raise on failure."""
        top = self.source.top
        for d in range(top):
            left = self.mats[d + 1].compose(self.source.diffs[d])
            right = self.target.diffs[d].compose(self.mats[d])
            if left != right:
                raise ValueError(f"not a chain map at degree {d}")
        if self.apply(self.source.unit).bits != self.target.unit.bits:
            raise ValueError("unit is not preserved")
        for d1, i1 in self.source.basis():
            e1 = GradedElement(d1, 1 << i1)
            fe1 = self.apply(e1)
            for d2, i2 in self.source.basis(top + 1 - d1):
                e2 = GradedElement(d2, 1 << i2)
                lhs = self.apply(self.source.product(e1, e2))
                rhs = self.target.product(fe1, self.apply(e2))
                if lhs.bits != rhs.bits:
                    raise ValueError(
                        f"not multiplicative on degrees ({d1}, {d2}) pair ({i1}, {i2})"
                    )

    def degreewise_surjective(self) -> bool:
        return all(
            self.mats[d].rank() == self.target.dim(d)
            for d in range(self.source.top + 1)
        )

    def is_quasi_iso(self) -> bool:
        """Does the map induce isomorphisms on cohomology in every degree?"""
        for d in range(self.source.top + 1):
            hs = self.source.cohomology_dim(d)
            ht = self.target.cohomology_dim(d)
            if hs != ht:
                return False
            cob_rank = self.target.rank_diff(d - 1)
            cols = [self.mats[d].mul_vec(z) for z in self.source.cocycle_basis(d)]
            if 0 <= d - 1 < self.target.top:
                cols.extend(self.target.diffs[d - 1].transpose().rows)
            induced = _columns_matrix(cols, self.target.dim(d)).rank() - cob_rank
            if induced != ht:
                return False
        return True


def extend_with_acyclic_pairs(
    base: DgAlgebra, pair_degrees: Sequence[int]
) -> tuple[DgAlgebra, DgMap]:
    """Adjoin contractible two-step summands and return the projection.

    Each requested degree ``d`` contributes a generator in degree ``d``
    whose differential is a fresh generator in degree ``d + 1``.  Products
    of the new generators with anything of positive degree vanish; the unit
    acts as the identity.  The projection back onto ``base`` is then a
    surjective quasi-isomorphism, giving a stock of acyclic fibrations.
    """
    if base.dim(0) != 1 or base.unit.bits != 1:
        raise ValueError("base must have a one-dimensional degree 0 spanned by the unit")
    top = base.top
    for d in pair_degrees:
        if not 1 <= d < top:
            raise ValueError("pair degrees must leave room for the differential")
    lower = [sorted(i for i, pd in enumerate(pair_degrees) if pd == d) for d in range(top + 1)]
    upper = [sorted(i for i, pd in enumerate(pair_degrees) if pd + 1 == d) for d in range(top + 1)]
    dims = [base.dim(d) + len(lower[d]) + len(upper[d]) for d in range(top + 1)]

    def lower_coord(d: int, pair: int) -> int:
        return base.dim(d) + lower[d].index(pair)

    def upper_coord(d: int, pair: int) -> int:
        return base.dim(d) + len(lower[d]) + upper[d].index(pair)

    diffs = []
    for d in range(top):
        cols = [0] * dims[d]
        base_cols = base.diffs[d].transpose().rows
        for j in range(base.dim(d)):
            cols[j] = base_cols[j]
        for pair in lower[d]:
            cols[lower_coord(d, pair)] = 1 << upper_coord(d + 1, pair)
        diffs.append(_columns_matrix(cols, dims[d + 1]))

    mult = dict(base.mult)
    for d in range(1, top + 1):
        for j in range(base.dim(d), dims[d]):
            mult[(0, 0, d, j)] = 1 << j
            mult[(d, j, 0, 0)] = 1 << j

    source = DgAlgebra(dims, diffs, mult, unit_bits=1, validate=False)
    mats = tuple(
        BitMatrix([1 << i for i in range(base.dim(d))], dims[d])
        for d in range(top + 1)
    )
    return source, DgMap(source, base, mats)


@dataclass(frozen=True)
class CohomologyClass:
    """A cocycle representative together with its ambient dg algebra."""

    algebra: DgAlgebra
    element: GradedElement

    def __post_init__(self):
        if not self.algebra.is_cocycle(self.element):
            raise NotACocycleError(
                f"representative in degree {self.element.degree} is not closed",
                witness=self.element,
            )

    @property
    def degree(self) -> int:
        return self.element.degree

    def is_zero_class(self) -> bool:
        return self.algebra.is_coboundary(self.element)

    def same_class(self, other: "CohomologyClass") -> bool:
        if self.degree != other.degree:
            return False
        return self.algebra.is_coboundary(self.element ^ other.element)


@lru_cache(maxsize=16)
def _slots(n: int) -> tuple[tuple[int, int], ...]:
    """The entry positions of an n-fold defining system, by span then start."""
    return tuple((i, i + span) for span in range(1, n) for i in range(1, n + 2 - span))


@dataclass
class DefiningSystem:
    """Entries ``a[i, j]`` for ``1 <= i < j <= n + 1`` minus the corner.

    ``degrees`` lists the degrees of the n input classes; the adjacent
    entries ``a[i, i + 1]`` represent them.  The corner ``(1, n + 1)`` is
    the slot the product itself obstructs and is never stored.
    """

    algebra: DgAlgebra
    degrees: tuple[int, ...]
    entries: dict[tuple[int, int], GradedElement] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.degrees)

    def expected_degree(self, i: int, j: int) -> int:
        return sum(self.degrees[i - 1 : j - 1]) - (j - 1 - i)

    def entry(self, i: int, j: int) -> GradedElement:
        return self.entries[(i, j)]

    def slots(self) -> list[tuple[int, int]]:
        """All entry positions, ordered by span then start."""
        return list(_slots(self.n))

    def relation(self, i: int, j: int) -> int:
        """Bits of the sum of ``entry(i, t) * entry(t, j)`` over ``i < t < j``:
        what ``diff(entry(i, j))`` must be, and at the corner the product."""
        bits = 0
        for t in range(i + 1, j):
            bits ^= self.algebra.product(self.entries[(i, t)], self.entries[(t, j)]).bits
        return bits

    def validate(self) -> None:
        """Degree bookkeeping plus every defining relation; raise on failure."""
        if self.n < 2:
            raise InvalidDefiningSystemError(
                "need at least two input classes", relation=None
            )
        alg = self.algebra
        for i, j in self.slots():
            if (i, j) not in self.entries:
                raise InvalidDefiningSystemError(
                    f"missing entry ({i}, {j})", relation=(i, j)
                )
            a = self.entries[(i, j)]
            if a.degree != self.expected_degree(i, j):
                raise InvalidDefiningSystemError(
                    f"entry ({i}, {j}) has degree {a.degree}, "
                    f"expected {self.expected_degree(i, j)}",
                    relation=(i, j),
                )
        for i, j in self.slots():
            if alg.diff(self.entries[(i, j)]).bits != self.relation(i, j):
                raise InvalidDefiningSystemError(
                    f"defining relation fails at ({i}, {j})", relation=(i, j)
                )


def massey_product(ds: DefiningSystem) -> CohomologyClass:
    """The product class of a validated defining system."""
    ds.validate()
    n = ds.n
    alg = ds.algebra
    out = GradedElement(ds.expected_degree(1, n + 1) + 1, ds.relation(1, n + 1))
    if not alg.is_cocycle(out):
        raise InvalidDefiningSystemError(
            "product of a defining system failed to be closed", relation=(1, n + 1)
        )
    return CohomologyClass(alg, out)


def _with_representatives(
    alg: DgAlgebra, classes: Sequence[CohomologyClass]
) -> DefiningSystem:
    """A defining system whose adjacent entries are the given representatives."""
    if len(classes) < 2:
        raise InvalidDefiningSystemError("need at least two input classes", relation=None)
    if any(c.algebra is not alg for c in classes):
        raise ValueError("class lives in a different algebra")
    ds = DefiningSystem(alg, tuple(c.degree for c in classes))
    for i, c in enumerate(classes, 1):
        ds.entries[(i, i + 1)] = c.element
    return ds


def trivial_defining_system(
    alg: DgAlgebra, classes: Sequence[CohomologyClass]
) -> DefiningSystem:
    """Adjacent entries only; valid when neighbouring products vanish.

    Requires a zero differential, so that classes are honest elements and
    the vanishing of a neighbouring product can be read off exactly.
    """
    if not alg.has_zero_differential():
        raise ValueError("trivial defining systems need a zero differential")
    ds = _with_representatives(alg, classes)
    for i in range(1, ds.n):
        if ds.relation(i, i + 2):
            raise InvalidDefiningSystemError(
                f"neighbouring product of inputs {i} and {i + 1} is nonzero",
                relation=(i, i + 2),
            )
    for i, j in ds.slots():
        if j - i >= 2:
            ds.entries[(i, j)] = GradedElement(ds.expected_degree(i, j), 0)
    return ds


def _all_sums(vectors: Iterable[int]) -> list[int]:
    """The sum of every subset of ``vectors``."""
    sums = [0]
    for v in vectors:
        sums += [s ^ v for s in sums]
    return sums


def massey_product_set(
    alg: DgAlgebra, classes: Sequence[CohomologyClass], cap: int | None = None
) -> set[int]:
    """Canonical representatives of every attainable product class.

    The set depends only on the classes, so the adjacent entries are the
    given representatives; each interior entry is one preimage of its
    relation plus any sum of cocycles.  The 2**(interior cocycle dimensions)
    systems are checked against ``cap`` (``MASSEY_CAP`` when None) first.
    Each inner entry walks its cocycle sums in Gray-code order, and every
    relation keeps the sum of its terms whose factors are set, so a step
    costs one XOR per term the entry completes.  A class is its remainder
    modulo the coboundaries on lowest-bit pivots.
    The outer entries (1, n) and (2, n + 1) are read by no relation but the
    corner's, and there only through products with the fixed end
    representatives, so their cocycles move every product by the same
    subspace: they are set to one preimage each and that subspace is added.

    >>> from koszulhh.algebra import BooleanRing, ConnectedSumAlgebra
    >>> H = from_connected_sum(ConnectedSumAlgebra(0, BooleanRing(3)), 4)
    >>> x1, x2, x3 = (CohomologyClass(H, H.element(1, 1 << i)) for i in range(3))
    >>> sorted(massey_product_set(H, [x1, x2, x3]))
    [0, 1, 4, 5]
    """
    ds = _with_representatives(alg, classes)
    n = ds.n
    slots = [(i, j) for i, j in ds.slots() if j - i > 1]
    spans = {slot: alg.cocycle_basis(ds.expected_degree(*slot)) for slot in slots}
    freedom = sum(len(span) for span in spans.values())
    message = f"enumerating 2**{freedom} defining systems exceeds the cap"
    check_cap(message, 1 << freedom, cap, MASSEY_CAP)
    outer = [slot for slot in slots if slot[1] - slot[0] == n - 1]
    inner = [slot for slot in slots if slot[1] - slot[0] < n - 1]

    boundaries = EchelonBasis(lowest=True)
    d = ds.expected_degree(1, n + 1) + 1
    if 1 <= d <= alg.top:
        boundaries.extend(alg.diffs[d - 1].transpose().rows)
    entries = ds.entries
    first, last = entries[(1, 2)], entries[(n, n + 1)]
    # the outer entries' cocycles shift every corner by this subspace
    shift = EchelonBasis()
    if outer:
        right, left = ds.expected_degree(2, n + 1), ds.expected_degree(1, n)
        shift.extend(
            boundaries.reduce(alg.product(first, GradedElement(right, z)).bits)
            for z in spans[(2, n + 1)]
        )
        shift.extend(
            boundaries.reduce(alg.product(GradedElement(left, z), last).bits)
            for z in spans[(1, n)]
        )

    # sums[(i, j)]: the terms entry(i, t) * entry(t, j) of a relation whose
    # two factors are set; a term is added when its later factor is set, and
    # the corner's two terms with an outer factor are added per system
    corner = (1, n + 1)
    sums = dict.fromkeys([*slots, corner], 0)
    for i in range(1, n):
        sums[(i, i + 2)] = ds.relation(i, i + 2)
    walked = {slot: pos for pos, slot in enumerate(inner)}

    def set_before(slot: tuple[int, int], pos: int) -> bool:
        return slot[1] - slot[0] == 1 or walked.get(slot, len(inner)) < pos

    # per inner slot, the (relation, other factor, slot on the left) of each
    # term it completes
    terms = [
        [((i, k), (j, k), True) for k in range(j + 1, n + 2) if set_before((j, k), pos)]
        + [((h, j), (h, i), False) for h in range(1, i) if set_before((h, i), pos)]
        for pos, (i, j) in enumerate(inner)
    ]

    def times(x: GradedElement, other: tuple[int, int], left: bool) -> int:
        y = entries[other]
        return (alg.product(x, y) if left else alg.product(y, x)).bits

    corners: set[int] = set()

    def close() -> None:
        """Set the outer entries to one preimage each and keep the corner's class."""
        for i, j in outer:
            d = ds.expected_degree(i, j)
            pre = alg.coboundary_preimage(GradedElement(d + 1, sums[(i, j)]))
            if pre is None:
                return
            entries[(i, j)] = pre
        corner_bits = sums[corner]
        if outer:
            corner_bits ^= alg.product(first, entries[(2, n + 1)]).bits
            corner_bits ^= alg.product(entries[(1, n)], last).bits
        corners.add(boundaries.reduce(corner_bits))

    def settings(pos: int) -> Iterator[int]:
        """Set inner slot pos to each value of its span in turn, yielding
        after each, then restore the sums it moved."""
        slot = inner[pos]
        d = ds.expected_degree(*slot)
        base = alg.coboundary_preimage(GradedElement(d + 1, sums[slot]))
        if base is None:
            return
        # the span in Gray-code order: each step adds one cocycle z, which
        # moves each completed term by its stored product with z
        span = spans[slot]
        saved = [sums[target] for target, _, _ in terms[pos]]
        steps = []
        for target, other, left in terms[pos]:
            sums[target] ^= times(base, other, left)
            steps.append((target, [times(GradedElement(d, z), other, left) for z in span]))
        x = base.bits
        for step in range(1 << len(span)):
            if step:
                k = (step & -step).bit_length() - 1
                x ^= span[k]
                for target, moves in steps:
                    sums[target] ^= moves[k]
            entries[slot] = GradedElement(d, x)
            yield pos
        for (target, _, _), value in zip(terms[pos], saved):
            sums[target] = value

    # walks[p + 1] walks inner slot p; walks[0] yields once, so that with no
    # inner slot the system is closed once
    walks: list[Iterator[int]] = [iter([-1])]
    while walks:
        if next(walks[-1], None) is None:
            walks.pop()
        elif len(walks) <= len(inner):
            walks.append(settings(len(walks) - 1))
        else:
            close()
    shifts = _all_sums(shift.rows.values())
    return {c ^ s for c in corners for s in shifts}


@dataclass(frozen=True)
class StrongMasseyReport:
    samples: int
    max_n: int
    checked: int
    all_zero: bool
    failures: tuple[tuple[tuple[int, int], ...], ...]


def strong_massey_check(
    alg: DgAlgebra, samples: int = 200, max_n: int = 5, seed: int = 0
) -> StrongMasseyReport:
    """Sample tuples with vanishing neighbouring products; products must vanish.

    Tuples are built left to right: each next element is drawn from the
    kernel of multiplication by its predecessor, so every sampled tuple
    admits the trivial defining system by construction.  Each kernel basis
    is computed once per (degree, element, degree) and kept, in the same
    order, so a seed draws the same tuples.

    With a zero differential only the trivial defining system is evaluated,
    whose every term is a vanishing neighbouring product or has a zero
    interior entry: the check cannot fail.
    """
    if not alg.has_zero_differential():
        raise ValueError("the strong vanishing check needs a zero differential")
    rng = random.Random(seed)
    degrees_avail = [d for d in (1, 2) if alg.dim(d) > 0]
    if not degrees_avail:
        raise ValueError("no classes to sample in degrees 1 or 2")
    checked = 0
    failures: list[tuple[tuple[int, int], ...]] = []
    # (degree, bits, degree d) -> basis of the degree-d kernel of left
    # multiplication by that element
    kernels: dict[tuple[int, int, int], list[int]] = {}
    for _ in range(samples):
        n = rng.randint(2, max_n)
        elts: list[GradedElement] = []
        d0 = rng.choice(degrees_avail)
        elts.append(alg.random_element(d0, rng))
        for _ in range(n - 1):
            d = rng.choice(degrees_avail)
            prev = elts[-1]
            kernel = kernels.get((prev.degree, prev.bits, d))
            if kernel is None:
                cols = [
                    alg.product(prev, GradedElement(d, 1 << j)).bits
                    for j in range(alg.dim(d))
                ]
                kernel = _columns_matrix(cols, alg.dim(prev.degree + d)).kernel_basis()
                kernels[(prev.degree, prev.bits, d)] = kernel
            bits = 0
            for v in kernel:
                if rng.getrandbits(1):
                    bits ^= v
            elts.append(GradedElement(d, bits))
        classes = [CohomologyClass(alg, e) for e in elts]
        ds = trivial_defining_system(alg, classes)
        result = massey_product(ds)
        checked += 1
        if not result.is_zero_class():
            failures.append(tuple((e.degree, e.bits) for e in elts))
    return StrongMasseyReport(
        samples=samples,
        max_n=max_n,
        checked=checked,
        all_zero=not failures,
        failures=tuple(failures),
    )


def _lift(q: DgMap, d: int, boundary: int, image: int) -> int | None:
    """Bits of some x in source degree d with diff(x) = boundary and
    q(x) = image, or None, from one solve on q's lift stack at degree d.  An
    acyclic fibration maps cocycles onto cocycles, and any (b, c) with
    q(b) = diff(c) has such an x."""
    src = q.source
    if not 0 <= d <= src.top:
        return None if boundary or image else 0
    boundary_len = src.dim(d + 1) if d < src.top else 0
    if boundary >> boundary_len:
        return None
    return q.lift_stacks[d].solve(boundary | image << boundary_len)


def lift_cocycle(q: DgMap, target_cocycle: GradedElement) -> GradedElement:
    """A source cocycle mapping onto a target cocycle under ``q``.

    A failed solve means the map is not a surjective quasi-isomorphism.
    """
    src, tgt = q.source, q.target
    d = target_cocycle.degree
    if not tgt.is_cocycle(target_cocycle):
        raise NotACocycleError(
            f"target element in degree {d} is not closed", witness=target_cocycle
        )
    x = _lift(q, d, 0, target_cocycle.bits)
    if x is None:
        raise ValueError("cocycle does not lift; the map is not an acyclic fibration")
    lifted = GradedElement(d, x)
    if not src.is_cocycle(lifted) or q.apply(lifted).bits != target_cocycle.bits:
        raise AssertionError("lifted cocycle failed verification")
    return lifted


def lift_coboundary(
    q: DgMap, source_boundary: GradedElement, target_primitive: GradedElement
) -> GradedElement:
    """A source primitive of a coboundary with a prescribed image.

    Given a source cocycle ``b`` that maps to ``diff`` of the target element
    ``c``, produce ``e`` with ``diff(e) == b`` and ``q(e) == c``.
    """
    src, tgt = q.source, q.target
    if not src.is_cocycle(source_boundary):
        raise NotACocycleError(
            "prescribed boundary value is not closed", witness=source_boundary
        )
    d = target_primitive.degree
    if (
        source_boundary.degree != d + 1
        or tgt.diff(target_primitive).bits != q.apply(source_boundary).bits
    ):
        raise ValueError("target primitive does not bound the image")
    x = _lift(q, d, source_boundary.bits, target_primitive.bits)
    if x is None:
        raise ValueError("primitive does not lift; the map is not an acyclic fibration")
    out = GradedElement(d, x)
    if src.diff(out).bits != source_boundary.bits or q.apply(out).bits != target_primitive.bits:
        raise AssertionError("lifted primitive failed verification")
    return out


def lift_defining_system(
    q: DgMap, classes: Sequence[CohomologyClass], ds: DefiningSystem
) -> DefiningSystem:
    """Transfer a defining system backwards along an acyclic fibration.

    ``classes`` are source classes whose images are the classes of the
    adjacent entries of ``ds``.  The lift agrees with ``ds`` entrywise
    under ``q`` and is itself a valid defining system.  An adjacent entry
    lifts as a cocycle, which lies in its source class because ``q`` is
    injective on cohomology.
    """
    src, tgt = q.source, q.target
    if ds.algebra is not tgt:
        raise ValueError("defining system must live in the target")
    if len(classes) != ds.n:
        raise ValueError("need one source class per input")
    ds.validate()
    lifted = DefiningSystem(src, ds.degrees)
    for i in range(1, ds.n + 1):
        r = classes[i - 1].element
        if r.degree != ds.degrees[i - 1]:
            raise ValueError(f"source class {i} has the wrong degree")
        entry = ds.entry(i, i + 1)
        if not tgt.is_coboundary(entry ^ q.apply(r)):
            raise ValueError(f"source class {i} does not map to the class of entry {i}")
        x = lift_cocycle(q, entry)
        if not src.is_coboundary(x ^ r):
            raise AssertionError(f"lifted entry {i} left its source class")
        lifted.entries[(i, i + 1)] = x
    for i, j in lifted.slots():
        if j - i == 1:
            continue
        boundary = GradedElement(lifted.expected_degree(i, j) + 1, lifted.relation(i, j))
        if not src.is_cocycle(boundary):
            raise InvalidDefiningSystemError(
                f"lifted relations do not close at ({i}, {j})", relation=(i, j)
            )
        lifted.entries[(i, j)] = lift_coboundary(q, boundary, ds.entry(i, j))
    lifted.validate()
    return lifted


# Wire format for dg algebras, shared with the command line interface.


def dg_algebra_to_dict(alg: DgAlgebra) -> dict:
    diffs = []
    for d in range(alg.top):
        mat = alg.diffs[d]
        diffs.append([to01(row, mat.cols) for row in mat.rows])
    mult = {
        f"{d1},{i1},{d2},{i2}": to01(bits, alg.dim(d1 + d2))
        for (d1, i1, d2, i2), bits in sorted(alg.mult.items())
    }
    return {
        "dims": list(alg.dims),
        "differentials": diffs,
        "multiplication": mult,
        "unit": to01(alg.unit.bits, alg.dim(0)),
    }


# int() also reads spaces, underscores and non-ASCII digits, so two spellings
# of one key could collide; a product key is matched against this first
_PRODUCT_KEY = re.compile(r"-?[0-9]+(,-?[0-9]+){3}")


def dg_algebra_from_dict(data: dict) -> DgAlgebra:
    dims = data["dims"]
    if not isinstance(dims, list) or any(type(x) is not int for x in dims):
        raise ValueError(f"dims must be a list of integers, got {dims!r}")
    diffs = []
    for d, rows in enumerate(data["differentials"]):
        if rows:
            mat = BitMatrix.from01(rows)
            if mat.cols != dims[d]:
                raise ValueError(f"differential at degree {d} has the wrong width")
        else:
            mat = BitMatrix.zeros(dims[d + 1], dims[d])
        diffs.append(mat)
    table = data.get("multiplication", {})
    if not isinstance(table, dict):
        raise ValueError("multiplication must be a JSON object")
    # (name, degree, 0/1 string) of every vector the file spells out
    texts = [("unit", 0, data.get("unit", "1"))]
    mult = {}
    for key, val in table.items():
        if not _PRODUCT_KEY.fullmatch(key):
            raise ValueError(f"product key {key!r} is not four comma-separated integers")
        pair = tuple(int(x) for x in key.split(","))
        if pair in mult:
            raise ValueError(f"product key {key} repeats an earlier key")
        mult[pair] = val
        texts.append((f"product {key}", pair[0] + pair[2], val))
    for name, _, text in texts:
        if not isinstance(text, str):
            raise ValueError(f"{name} must be a 0/1 string, got {text!r}")
    mult = {pair: from01(val) for pair, val in mult.items()}
    alg = DgAlgebra(dims, diffs, mult, unit_bits=from01(texts[0][2]), validate=False)
    for name, d, text in texts:
        if len(text) != alg.dim(d):
            raise ValueError(f"{name} needs {alg.dim(d)} bits, got {len(text)}")
    alg.validate()
    return alg
