"""Boolean rings, their subrings, and connected-sum graded algebras.

A finite Boolean ring with ``n`` atoms is modelled on int bitsets over the
atoms: multiplication is AND, addition is XOR, and the unit is the all-ones
mask.  A subring is recorded by the partition of the atom set whose block
unions are exactly the subring elements.

The graded algebras built here have a one-dimensional degree-0 part, a
degree-1 part spanned by ``v``-generators together with the ring atoms, and
copies of the ring in every higher degree.  Products of two ``v``-generators
vanish, as do mixed products; atom parts multiply through the ring.  With no
atoms this is the algebra whose positive part is concentrated in degree 1
with all products zero; with no ``v``-generators it is the Boolean part
alone.
"""

from __future__ import annotations

from dataclasses import dataclass


class BooleanRing:
    """Finite Boolean ring with a fixed atom basis, elements as bitsets."""

    __slots__ = ("atom_count",)

    def __init__(self, atom_count: int):
        if atom_count < 1:
            raise ValueError("a Boolean ring needs at least one atom (rings have a unit)")
        self.atom_count = atom_count

    @property
    def one(self) -> int:
        return (1 << self.atom_count) - 1

    def atom(self, i: int) -> int:
        if not 0 <= i < self.atom_count:
            raise IndexError(i)
        return 1 << i

    def check(self, x: int) -> int:
        if x < 0 or x >> self.atom_count:
            raise ValueError("element outside the ring")
        return x

    def product(self, x: int, y: int) -> int:
        return self.check(x) & self.check(y)

    def add(self, x: int, y: int) -> int:
        return self.check(x) ^ self.check(y)

    def complement(self, x: int) -> int:
        return self.one ^ self.check(x)

    def __eq__(self, other) -> bool:
        return isinstance(other, BooleanRing) and other.atom_count == self.atom_count

    def __hash__(self):
        return hash(("BooleanRing", self.atom_count))

    def __repr__(self) -> str:
        return f"BooleanRing({self.atom_count})"


def ideal_membership(ring: BooleanRing, z: int, x: int, y: int) -> bool:
    """Whether z lies in the ideal generated by x and y.

    In a Boolean ring the ideal (x, y) is generated by x + y + xy, so
    membership is the single identity (1 + x + y + xy) z = 0; on atom
    bitsets that is containment of supports.
    """
    ring.check(z), ring.check(x), ring.check(y)
    return z & ring.complement(x | y) == 0


def ideal_decompose(ring: BooleanRing, z: int, x: int, y: int) -> tuple[int, int]:
    """Split z in (x, y) as z = z_x + z_y with z_x in (x), z_y in (y).

    Requires xy = 0; the split is then unique and given by z_x = xz,
    z_y = yz.
    """
    if ring.product(x, y) != 0:
        raise ValueError("generators must be orthogonal for a unique split")
    if not ideal_membership(ring, z, x, y):
        raise ValueError("element is not in the ideal")
    return z & x, z & y


class Subring:
    """Unital subring of a Boolean ring, stored as a partition into blocks.

    ``blocks`` are pairwise disjoint nonzero masks covering the unit; the
    subring's elements are exactly the unions of blocks.  Blocks are kept
    sorted by their lowest atom, which fixes the canonical atom order of the
    subring viewed as a Boolean ring in its own right.
    """

    __slots__ = ("ambient", "blocks")

    def __init__(self, ambient: BooleanRing, blocks):
        blocks = tuple(sorted(blocks, key=lambda b: b & -b))
        union = 0
        for b in blocks:
            ambient.check(b)
            if b == 0:
                raise ValueError("empty block")
            if union & b:
                raise ValueError("blocks overlap")
            union |= b
        if union != ambient.one:
            raise ValueError("blocks do not cover the unit")
        self.ambient = ambient
        self.blocks = blocks

    @classmethod
    def full(cls, ring: BooleanRing) -> "Subring":
        """The ring itself: every atom is its own block."""
        return cls(ring, [ring.atom(i) for i in range(ring.atom_count)])

    @classmethod
    def trivial(cls, ring: BooleanRing) -> "Subring":
        """The two-element subring {0, 1}."""
        return cls(ring, [ring.one])

    @property
    def atom_count(self) -> int:
        return len(self.blocks)

    def adjoin(self, x: int) -> "Subring":
        """Smallest subring containing this one and the element x."""
        self.ambient.check(x)
        new_blocks = []
        for b in self.blocks:
            inside, outside = b & x, b & ~x
            if inside:
                new_blocks.append(inside)
            if outside:
                new_blocks.append(outside)
        return Subring(self.ambient, new_blocks)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subring)
            and self.ambient == other.ambient
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return hash((self.ambient, self.blocks))

    def __repr__(self) -> str:
        masks = ",".join(bin(b)[2:] for b in self.blocks)
        return f"Subring({self.ambient!r}, [{masks}])"


@dataclass(frozen=True)
class GradedElement:
    """Homogeneous element: a degree and a coefficient bitset.

    The basis convention per degree is fixed by the owning algebra: degree 0
    is spanned by the unit, degree 1 by the ``v``-generators followed by the
    atoms, and each degree >= 2 by the atoms alone.
    """

    degree: int
    bits: int

    def __xor__(self, other: "GradedElement") -> "GradedElement":
        if self.degree != other.degree:
            raise ValueError("cannot add elements of different degrees")
        return GradedElement(self.degree, self.bits ^ other.bits)

    __add__ = __xor__


class ConnectedSumAlgebra:
    """Graded algebra glued from a dual part and a Boolean part.

    ``v_dim`` counts the degree-1 generators whose pairwise products vanish;
    ``ring`` (may be None) contributes its atoms in degree 1 and a copy of
    itself in every degree >= 2.  Cross products between the two parts are
    zero.
    """

    __slots__ = ("v_dim", "ring")

    def __init__(self, v_dim: int, ring: BooleanRing | None = None):
        if v_dim < 0:
            raise ValueError("v_dim must be nonnegative")
        self.v_dim = v_dim
        self.ring = ring

    @property
    def atom_count(self) -> int:
        return self.ring.atom_count if self.ring is not None else 0

    @property
    def gen_count(self) -> int:
        return self.v_dim + self.atom_count

    def graded_dim(self, j: int) -> int:
        if j < 0:
            return 0
        if j == 0:
            return 1
        if j == 1:
            return self.gen_count
        return self.atom_count

    def generator_labels(self) -> list[str]:
        return [f"v{i + 1}" for i in range(self.v_dim)] + [
            f"x{a + 1}" for a in range(self.atom_count)
        ]

    def basis_labels(self, j: int) -> list[str]:
        if j == 0:
            return ["1"]
        if j == 1:
            return self.generator_labels()
        return [f"x{a + 1}" for a in range(self.atom_count)]

    def element(self, degree: int, bits: int) -> GradedElement:
        dim = self.graded_dim(degree)
        if bits < 0 or bits >> dim:
            raise ValueError("coefficients outside the graded piece")
        return GradedElement(degree, bits)

    def generator(self, gen_index: int) -> GradedElement:
        if not 0 <= gen_index < self.gen_count:
            raise IndexError(gen_index)
        return GradedElement(1, 1 << gen_index)

    def atom_part(self, elt: GradedElement) -> int:
        """The ring-valued part of an element, as an atom bitset."""
        if elt.degree == 0:
            raise ValueError("degree 0 has no atom part")
        if elt.degree == 1:
            return elt.bits >> self.v_dim
        return elt.bits

    def v_part(self, elt: GradedElement) -> int:
        if elt.degree != 1:
            return 0
        return elt.bits & ((1 << self.v_dim) - 1)

    def from_parts(self, degree: int, v_bits: int, atom_bits: int) -> GradedElement:
        if degree == 1:
            return self.element(1, v_bits | (atom_bits << self.v_dim))
        if v_bits:
            raise ValueError("v-part only exists in degree 1")
        return self.element(degree, atom_bits)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ConnectedSumAlgebra)
            and self.v_dim == other.v_dim
            and self.ring == other.ring
        )

    def __hash__(self):
        return hash((self.v_dim, self.ring))

    def __repr__(self) -> str:
        return f"ConnectedSumAlgebra(v_dim={self.v_dim}, atoms={self.atom_count})"


def graded_multiply(alg: ConnectedSumAlgebra, u: GradedElement, w: GradedElement) -> GradedElement:
    """Product in the connected sum.

    Scalars act as scalars; products of positive-degree elements keep only
    the ring parts, which multiply by atom-set intersection.
    """
    if u.degree == 0:
        return GradedElement(w.degree, w.bits if u.bits else 0)
    if w.degree == 0:
        return GradedElement(u.degree, u.bits if w.bits else 0)
    target = u.degree + w.degree
    atom_bits = alg.atom_part(u) & alg.atom_part(w)
    return alg.element(target, atom_bits)


def action(alg: ConnectedSumAlgebra, x: GradedElement, j: int) -> list[int]:
    """Multiplication by x from degree j, as the one source of each output.

    Entry r is the basis index of degree j that x carries onto basis element
    r of degree j + x.degree, or -1.  No output has two sources: the unit
    goes to the bits of x, atom a to atom a when a is in x, and a v kills
    every positive degree.
    """
    out = alg.graded_dim(j + x.degree)
    if j < 0:
        return [-1] * out
    if x.degree == 0:
        return [r if x.bits else -1 for r in range(out)]
    if j == 0:
        return [0 if x.bits >> r & 1 else -1 for r in range(out)]
    atoms, shift = alg.atom_part(x), alg.v_dim if j == 1 else 0
    return [r + shift if atoms >> r & 1 else -1 for r in range(out)]
