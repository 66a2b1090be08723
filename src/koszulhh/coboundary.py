"""Explicit coboundary construction on the Koszul cochain complex.

Admissible sequences carry a cyclic translation that fixes exactly the
sequences beginning and ending in the same atom ("stable") and otherwise
moves the last entry to the front.  A cocycle's value at a sequence splits
into a head inside the ideal of the first entry and a tail inside the ideal
of the last entry; around each orbit the head of the translate equals the
tail.  Summing heads onto right-truncations yields an explicit primitive for
every cocycle in the relevant bidegrees, which is verified before returning.

The same splitting mechanics extends cocycles along a refinement of the
coefficient subring: each value splits along the adjoined element and its
complement, and one walk carries each part through its own branch.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import GradedElement, Subring
from .errors import NotACocycleError
from .hochschild import Cochain, HochschildComplex
from .koszul import child_positions, count_admissible


@dataclass(frozen=True)
class Orbit:
    """One translation orbit of sequence positions, from its lexicographically
    least member; each further member is the inverse translate of the one
    before it.

    r_fixed marks unstable sequences that the rotation nevertheless fixes
    (constant sequences of one non-atom generator); they carry zero head and
    tail throughout.
    """

    sequences: tuple[int, ...]
    stable: bool
    r_fixed: bool


def orbit_decomposition(hc: HochschildComplex, k: int) -> list[Orbit]:
    """Partition the admissible length-k sequences into translation orbits.

    The inverse translate of an unstable u is u[1:] + (u[0],), the child of
    its suffix with generator u[0]; stable sequences are fixed.
    """
    if k < 1:
        raise ValueError("orbits need positive length")
    m = hc.m
    first, last, suffix, _ = hc.links(k)
    back = child_positions(m, hc.nj, k - 1, suffix, first)
    seen = bytearray(len(first))
    orbits = []
    for start in range(len(first)):
        if seen[start]:
            continue
        chain = [start]
        seen[start] = 1
        # at k = 1 the rotation of an atom is admissible, but it is stable
        stable = first[start] == last[start] >= m
        cur = start if stable else back[start]
        while cur != start:
            chain.append(cur)
            seen[cur] = 1
            cur = back[cur]
        orbits.append(Orbit(tuple(chain), stable, not stable and len(chain) == 1))
    return orbits


@dataclass(frozen=True)
class HeadTail:
    """Ideal components of a cocycle's values around one orbit.

    heads[i] lies in the ideal of the first entry's mask of orbit.sequences[i],
    tails[i] in its last entry's; their sum recovers the value.
    """

    orbit: Orbit
    heads: tuple[int, ...]
    tails: tuple[int, ...]

    def law_holds(self) -> bool:
        """The head of each translate equals the tail: the translate of
        sequences[i + 1] is sequences[i], cyclically."""
        return self.heads == self.tails[1:] + self.tails[:1]


def _boolean_value(hc: HochschildComplex, f: Cochain, pos: int) -> int:
    """Atom mask of a value; rejects degree-1 values with a free part."""
    value = GradedElement(f.k + f.s, f.values[pos])
    if hc.alg.v_part(value):
        raise NotACocycleError("value has a component outside the Boolean part", (pos, value.bits))
    return hc.alg.atom_part(value)


def head_tail(hc: HochschildComplex, f: Cochain, orbit: Orbit) -> HeadTail:
    """Split each value into its first-entry and last-entry ideal components.

    Membership of the value in the two-generator ideal is exactly the cocycle
    constraint along the orbit; a failure therefore reports a non-cocycle.
    """
    if f.k + f.s < 1:
        raise ValueError("values must sit in positive module degrees")
    first, last = hc.links(f.k)[:2]
    one = (1 << hc.alg.atom_count) - 1
    heads, tails = [], []
    for pos in orbit.sequences:
        val = _boolean_value(hc, f, pos)
        p_first = hc.generator_mask(first[pos])
        p_last = hc.generator_mask(last[pos])
        if val & ~(p_first | p_last) & one:
            raise NotACocycleError("value escapes the end ideals", (pos, val))
        if orbit.stable:
            heads.append(val)
            tails.append(val)
        else:
            heads.append(val & p_first)
            tails.append(val & p_last)
    return HeadTail(orbit, tuple(heads), tuple(tails))


def solve_coboundary(hc: HochschildComplex, f: Cochain) -> Cochain:
    """Primitive of a cocycle: g with coboundary exactly f.

    Requires k >= 2 and module degree k+s >= 2 so that values are pure atom
    masks.  Each sequence contributes its head to its right-truncation, in
    one degree lower; the head/tail law around orbits makes the coboundary
    telescope to f, and the result is verified before returning.
    """
    k, s = f.k, f.s
    if k < 2:
        raise ValueError("need at least two tensor factors")
    if k + s < 2:
        raise ValueError("module degree below the Boolean range")
    if not hc.is_cocycle(f):
        raise NotACocycleError("coboundary is nonzero", None)
    suffix = hc.links(k).suffix
    g_vals = [0] * count_admissible(hc.m, hc.nj, k - 1)
    for orbit in orbit_decomposition(hc, k):
        ht = head_tail(hc, f, orbit)
        if not ht.law_holds():
            raise NotACocycleError("head/tail law fails around an orbit", orbit.sequences[0])
        for pos, head in zip(orbit.sequences, ht.heads):
            g_vals[suffix[pos]] ^= hc.alg.from_parts(k - 1 + s, 0, head).bits
    g = Cochain(k - 1, s, tuple(g_vals))
    if hc.coboundary_of(g) != f:
        raise AssertionError("constructed primitive failed verification")
    return g


# -- extension along a subring refinement ----------------------------------


def _coarse_images(hc2: HochschildComplex, hc: HochschildComplex, k: int, x: int = 0) -> tuple:
    """Per length-k sequence of hc2, the position of its image in hc (or -1),
    and the sides of x its split entries take: 1 inside x, 2 outside, or-ed.

    hc2's blocks refine hc's, and the image replaces each block by the coarse
    block holding it; the position is -1 when the image is not admissible.
    An entry is split when x splits its coarse block.  Built level by level:
    the image of u is the child of the image of u[:-1] with the image of u[-1].
    """
    m = hc.m
    image, side = list(range(m)), [0] * m
    for b2 in hc2.blocks:
        i, b = next((i, b) for i, b in enumerate(hc.blocks) if b2 & b)
        if b2 & ~b:
            raise ValueError("refinement does not respect the old blocks")
        image.append(m + i)
        side.append(0 if not b & x or not b & ~x else 1 if b2 & x else 2)
    pos, sides = [0], [0]
    for j in range(k):
        fine = hc2.links(j + 1)
        parents = map(pos.__getitem__, fine.prefix)
        pos = child_positions(m, hc.nj, j, parents, map(image.__getitem__, fine.last))
        sides = [sides[p] | side[g] for p, g in zip(fine.prefix, fine.last)]
    return pos, sides


def extend_cocycle(
    hc: HochschildComplex, x: int, f: Cochain
) -> tuple[HochschildComplex, Cochain]:
    """Extend a cocycle with f = x.f along adjoining x to the subring.

    This is the case f = x.f of extend_cocycle_split: only the part in x is
    nonzero, and it is transported through the branch where x is one.  Only
    the stricter input checks live here.
    """
    if f.k + f.s != 1:
        raise ValueError("extension operates on values in module degree 1")
    for bits in f.values:
        value = GradedElement(1, bits)
        if hc.alg.v_part(value):
            raise ValueError("free part present; strip it first")
        if hc.alg.atom_part(value) & ~x:
            raise ValueError("values not multiples of the adjoined element")
    return extend_cocycle_split(hc, x, f)


def _transport(hc: HochschildComplex, hc2: HochschildComplex, x: int, f: Cochain) -> Cochain:
    """Values through the two sections, one preferring each side of x.

    The near part of a value (the free part and the atoms in x) goes where
    each split entry is inside x, the rest where each is outside.  So a
    sequence of hc2 reads its image's value masked by its sides: all of it
    (0), the near part (1), the rest (2) or nothing (3).
    """
    near = hc.alg.from_parts(1, (1 << hc.m) - 1, x).bits
    masks = (-1, near, ~near, 0)
    images, sides = _coarse_images(hc2, hc, f.k, x)
    vals = tuple(f.values[c] & masks[t] if c >= 0 else 0 for c, t in zip(images, sides))
    return Cochain(f.k, f.s, vals)


def restrict_cochain(hc2: HochschildComplex, hc: HochschildComplex, g: Cochain) -> Cochain:
    """Pull a cochain back along the block-sum inclusion of coefficient algebras.

    Each coarse atom entry expands into the sum of its refined children; the
    value at a coarse sequence is the sum of the values at the refined
    sequences with that image.
    """
    vals = [0] * count_admissible(hc.m, hc.nj, g.k)
    for u, c in enumerate(_coarse_images(hc2, hc, g.k)[0]):
        if c >= 0:
            vals[c] ^= g.values[u]
    return Cochain(g.k, g.s, tuple(vals))


def extend_cocycle_split(
    hc: HochschildComplex, x: int, f: Cochain
) -> tuple[HochschildComplex, Cochain]:
    """Extend an arbitrary degree-one-valued cocycle by splitting it first.

    The free-generator part and the Boolean part inside x go through the
    branch where x is one, the Boolean part inside the complement of x
    through the other branch; _transport takes both parts in one walk of the
    refinement.  The sum is verified as a cocycle restricting to f.
    """
    ring = hc.alg.ring
    if ring is None:
        raise ValueError("no Boolean part to refine")
    if f.k + f.s != 1:
        raise ValueError("extension operates on values in module degree 1")
    if not hc.is_cocycle(f):
        raise NotACocycleError("input is not a cocycle", None)
    old = hc.subring if hc.subring is not None else Subring.full(ring)
    new = old.adjoin(x)
    if new == old:
        return hc, f
    hc2 = HochschildComplex(hc.alg, new, hc.cap)
    total = _transport(hc, hc2, x, f)
    if not hc2.is_cocycle(total):
        raise AssertionError("glued extension failed the cocycle check")
    if restrict_cochain(hc2, hc, total) != f:
        raise AssertionError("glued extension failed the restriction check")
    return hc2, total
