"""Explicit coboundary construction on the Koszul cochain complex.

Admissible sequences carry a cyclic translation that fixes exactly the
sequences beginning and ending in the same atom ("stable") and otherwise
moves the last entry to the front.  A cocycle's value at a sequence splits
into a head inside the ideal of the first entry and a tail inside the ideal
of the last entry; around each orbit the head of the translate equals the
tail.  Summing heads onto right-truncations yields an explicit primitive for
every cocycle in the relevant bidegrees, which is verified before returning.

The same splitting mechanics extends cocycles along a refinement of the
coefficient subring: each value is transported through the branch where the
adjoined element evaluates to one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Subring
from .errors import NotACocycleError
from .hochschild import Cochain, HochschildComplex


def rotate_forward(seq: tuple[int, ...], m: int) -> tuple[int, ...]:
    """Move the last entry to the front; stable sequences are fixed."""
    if is_stable(seq, m):
        return seq
    return (seq[-1],) + seq[:-1]


def rotate_back(seq: tuple[int, ...], m: int) -> tuple[int, ...]:
    """Inverse translation: move the first entry to the back."""
    if is_stable(seq, m):
        return seq
    return seq[1:] + (seq[0],)


def is_stable(seq: tuple[int, ...], m: int) -> bool:
    return len(seq) >= 1 and seq[0] == seq[-1] and seq[0] >= m


def drop_first(seq: tuple[int, ...]) -> tuple[int, ...]:
    return seq[1:]


def drop_last(seq: tuple[int, ...]) -> tuple[int, ...]:
    return seq[:-1]


@dataclass(frozen=True)
class Orbit:
    """One translation orbit, listed from its lexicographically least element.

    r_fixed marks unstable sequences that the rotation nevertheless fixes
    (constant sequences of one non-atom generator); they carry zero head and
    tail throughout.
    """

    sequences: tuple[tuple[int, ...], ...]
    stable: bool
    r_fixed: bool

    def truncation_set(self) -> tuple[tuple[int, ...], ...]:
        return tuple(drop_first(t) for t in self.sequences)


def orbit_decomposition(hc: HochschildComplex, k: int) -> list[Orbit]:
    """Partition the admissible length-k sequences into translation orbits."""
    if k < 1:
        raise ValueError("orbits need positive length")
    m = hc.m
    seen = set()
    orbits = []
    for start in hc.sequences(k):
        if start in seen:
            continue
        chain = [start]
        seen.add(start)
        cur = rotate_forward(start, m)
        while cur != start:
            chain.append(cur)
            seen.add(cur)
            cur = rotate_forward(cur, m)
        stable = is_stable(start, m)
        orbits.append(Orbit(tuple(chain), stable, not stable and len(chain) == 1))
    return orbits


@dataclass(frozen=True)
class HeadTail:
    """Ideal components of a cocycle's values around one orbit.

    heads[t] lies in the ideal of the first entry's mask, tails[t] in the
    last entry's; their sum recovers the value.
    """

    orbit: Orbit
    heads: dict
    tails: dict

    def law_holds(self, m: int) -> bool:
        return all(
            self.heads[rotate_forward(t, m)] == self.tails[t] for t in self.orbit.sequences
        )


def _boolean_value(hc: HochschildComplex, f: Cochain, pos: int) -> int:
    """Atom mask of a value; rejects degree-1 values with a free part."""
    j = f.k + f.s
    bits = f.values[pos]
    if j == 1:
        if bits & ((1 << hc.alg.v_dim) - 1):
            raise NotACocycleError("value has a component outside the Boolean part", bits)
        return bits >> hc.alg.v_dim
    return bits


def head_tail(hc: HochschildComplex, f: Cochain, orbit: Orbit) -> HeadTail:
    """Split each value into its first-entry and last-entry ideal components.

    Membership of the value in the two-generator ideal is exactly the cocycle
    constraint along the orbit; a failure therefore reports a non-cocycle.
    """
    if f.k + f.s < 1:
        raise ValueError("values must sit in positive module degrees")
    index = hc.sequence_index(f.k)
    one = (1 << hc.alg.atom_count) - 1
    heads, tails = {}, {}
    for t in orbit.sequences:
        val = _boolean_value(hc, f, index[t])
        p_first = hc.generator_mask(t[0])
        p_last = hc.generator_mask(t[-1])
        if val & ~(p_first | p_last) & one:
            raise NotACocycleError("value escapes the end ideals", (t, val))
        if orbit.stable:
            heads[t] = tails[t] = val
        else:
            heads[t] = val & p_first
            tails[t] = val & p_last
    return HeadTail(orbit, heads, tails)


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
    m = hc.m
    out_index = hc.sequence_index(k - 1)
    g_vals = [0] * len(out_index)
    for orbit in orbit_decomposition(hc, k):
        ht = head_tail(hc, f, orbit)
        if not ht.law_holds(m):
            raise NotACocycleError("head/tail law fails around an orbit", orbit.sequences[0])
        for t in orbit.sequences:
            g_vals[out_index[drop_first(t)]] ^= hc.alg.from_parts(k - 1 + s, 0, ht.heads[t]).bits
    g = Cochain(k - 1, s, tuple(g_vals))
    if hc.coboundary_of(g) != f:
        raise AssertionError("constructed primitive failed verification")
    return g


def bottom_cocycles(hc: HochschildComplex, k: int) -> int:
    """Dimension of the cocycle space with values in the degree-0 piece."""
    if k < 1:
        raise ValueError("positive degree required")
    return hc.hh(k, -k).cocycles


# -- extension along a subring refinement ----------------------------------


def _parents_and_section(old: Subring, new: Subring, x: int):
    """Per new-block parent index, and the preferred child of each old block."""
    parent = []
    for b2 in new.blocks:
        for i, b in enumerate(old.blocks):
            if b2 & b:
                if b2 & ~b:
                    raise ValueError("refinement does not respect the old blocks")
                parent.append(i)
                break
    selected = []
    for b in old.blocks:
        inside, outside = b & x, b & ~x
        selected.append(inside if inside and outside else b)
    return parent, selected


def extend_cocycle(
    hc: HochschildComplex, x: int, f: Cochain
) -> tuple[HochschildComplex, Cochain]:
    """Extend a cocycle with f = x.f along adjoining x to the subring.

    The extension vanishes off sequences whose atom entries all lie in the
    preferred branch (where x evaluates to one) and transports values through
    the branch-collapsing map elsewhere.  Restriction to the old complex and
    the cocycle property are verified.
    """
    alg = hc.alg
    if alg.ring is None:
        raise ValueError("no Boolean part to refine")
    if f.k + f.s != 1:
        raise ValueError("extension operates on values in module degree 1")
    old = hc.subring if hc.subring is not None else Subring.full(alg.ring)
    alg.ring.check(x)
    for i, t in enumerate(hc.sequences(f.k)):
        bits = f.values[i]
        if bits & ((1 << alg.v_dim) - 1):
            raise ValueError("free part present; strip it first")
        if (bits >> alg.v_dim) & ~x:
            raise ValueError("values not multiples of the adjoined element")
    if not hc.is_cocycle(f):
        raise NotACocycleError("input is not a cocycle", None)
    new = old.adjoin(x)
    if new == old:
        return hc, f
    hc2 = HochschildComplex(alg, new)
    f2 = _transport(hc, hc2, old, new, x, f)
    if not hc2.is_cocycle(f2):
        raise AssertionError("extension failed the cocycle check")
    if restrict_cochain(hc2, hc, f2) != f:
        raise AssertionError("extension failed the restriction check")
    return hc2, f2


def _transport(hc, hc2, old, new, x, f):
    """Values through the section that prefers the branch where x is one."""
    m = hc.m
    parent, selected = _parents_and_section(old, new, x)
    index_old = hc.sequence_index(f.k)
    vals = []
    for t in hc2.sequences(f.k):
        chosen = all(g < m or new.blocks[g - m] == selected[parent[g - m]] for g in t)
        if not chosen:
            vals.append(0)
            continue
        pre = tuple(g if g < m else m + parent[g - m] for g in t)
        vals.append(f.values[index_old[pre]])
    return Cochain(f.k, f.s, tuple(vals))


def restrict_cochain(hc2: HochschildComplex, hc: HochschildComplex, g: Cochain) -> Cochain:
    """Pull a cochain back along the block-sum inclusion of coefficient algebras.

    Each coarse atom entry expands into the sum of its refined children; the
    value at a coarse sequence is the sum over all expansion choices.
    """
    m = hc.m
    old = hc.subring if hc.subring is not None else Subring.full(hc.alg.ring)
    new = hc2.subring
    children: list[list[int]] = [[] for _ in old.blocks]
    for j2, b2 in enumerate(new.blocks):
        for i, b in enumerate(old.blocks):
            if b2 & b:
                children[i].append(j2)
                break
    index_new = hc2.sequence_index(g.k)
    vals = []
    for t in hc.sequences(g.k):
        acc = 0
        choices: list[tuple[int, ...]] = [()]
        for gidx in t:
            if gidx < m:
                choices = [c + (gidx,) for c in choices]
            else:
                choices = [c + (m + j2,) for c in choices for j2 in children[gidx - m]]
        for u in choices:
            acc ^= g.values[index_new[u]]
        vals.append(acc)
    return Cochain(g.k, g.s, tuple(vals))


def extend_cocycle_split(
    hc: HochschildComplex, x: int, f: Cochain
) -> tuple[HochschildComplex, Cochain]:
    """Extend an arbitrary degree-one-valued cocycle by splitting it first.

    The free-generator part lifts through the section unchanged (it is
    automatically a cocycle), and the Boolean part splits along x and its
    complement, each handled by the core extension with the matching branch
    preference.  The three lifts are summed.
    """
    alg = hc.alg
    ring = alg.ring
    if ring is None:
        raise ValueError("no Boolean part to refine")
    if not hc.is_cocycle(f):
        raise NotACocycleError("input is not a cocycle", None)
    old = hc.subring if hc.subring is not None else Subring.full(ring)
    new = old.adjoin(x)
    if new == old:
        return hc, f
    hc2 = HochschildComplex(alg, new)
    v_mask = (1 << alg.v_dim) - 1
    split = []
    for adjoined, pick in ((x, x), (ring.complement(x), ring.complement(x))):
        part = Cochain(
            f.k, f.s, tuple(((v >> alg.v_dim) & pick) << alg.v_dim for v in f.values)
        )
        split.append(_transport(hc, hc2, old, new, adjoined, part))
    free_part = Cochain(f.k, f.s, tuple(v & v_mask for v in f.values))
    lifted_free = _transport(hc, hc2, old, new, x, free_part)
    total = lifted_free
    for part in split:
        total = total + part
    if not hc2.is_cocycle(total):
        raise AssertionError("glued extension failed the cocycle check")
    if restrict_cochain(hc2, hc, total) != f:
        raise AssertionError("glued extension failed the restriction check")
    return hc2, total
