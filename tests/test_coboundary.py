"""Tests for orbit mechanics, the coboundary solver, and cocycle extension.

The library works on sequence positions.  The tuple versions of the
rotation, the orbits, the head/tail split, the transport and the
restriction below are the earlier implementation, kept as references.
"""

import random

import pytest

from koszulhh import koszul
from koszulhh.algebra import BooleanRing, ConnectedSumAlgebra, Subring
from koszulhh.coboundary import (
    _transport,
    extend_cocycle,
    extend_cocycle_split,
    head_tail,
    orbit_decomposition,
    restrict_cochain,
    solve_coboundary,
)
from koszulhh.errors import NotACocycleError
from koszulhh.hochschild import Cochain, HochschildComplex
from koszulhh.koszul import admissible_tuples


def complex_for(m, n):
    ring = BooleanRing(n) if n else None
    return HochschildComplex(ConnectedSumAlgebra(m, ring))


def zero_cochain(hc, k, s):
    return hc.cochain_from_bits(k, s, 0)


def tuples(hc, k):
    return admissible_tuples(hc.m, hc.nj, k)


def index(hc, k):
    return {t: i for i, t in enumerate(tuples(hc, k))}


# -- tuple references ------------------------------------------------------


def rotate_forward(seq, m):
    """Move the last entry to the front; stable sequences are fixed."""
    if is_stable(seq, m):
        return seq
    return (seq[-1],) + seq[:-1]


def rotate_back(seq, m):
    """Inverse translation: move the first entry to the back."""
    if is_stable(seq, m):
        return seq
    return seq[1:] + (seq[0],)


def is_stable(seq, m):
    return len(seq) >= 1 and seq[0] == seq[-1] and seq[0] >= m


def drop_first(seq):
    return seq[1:]


def drop_last(seq):
    return seq[:-1]


def reference_orbits(hc, k):
    """(sequences, stable, r_fixed) per orbit, each chained by rotate_forward."""
    m = hc.m
    seen = set()
    orbits = []
    for start in tuples(hc, k):
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
        orbits.append((tuple(chain), stable, not stable and len(chain) == 1))
    return orbits


def reference_head_tail(hc, f, sequences, stable):
    """Heads and tails keyed by tuple, for a cochain valued in degree >= 2."""
    idx = index(hc, f.k)
    heads, tails = {}, {}
    for t in sequences:
        val = f.values[idx[t]]
        if stable:
            heads[t] = tails[t] = val
        else:
            heads[t] = val & hc.generator_mask(t[0])
            tails[t] = val & hc.generator_mask(t[-1])
    return heads, tails


def reference_parents_and_section(old, new, x):
    parent = []
    for b2 in new.blocks:
        for i, b in enumerate(old.blocks):
            if b2 & b:
                parent.append(i)
                break
    selected = []
    for b in old.blocks:
        inside, outside = b & x, b & ~x
        selected.append(inside if inside and outside else b)
    return parent, selected


def reference_transport(hc, hc2, old, new, x, f):
    m = hc.m
    parent, selected = reference_parents_and_section(old, new, x)
    index_old = index(hc, f.k)
    vals = []
    for t in tuples(hc2, f.k):
        chosen = all(g < m or new.blocks[g - m] == selected[parent[g - m]] for g in t)
        if not chosen:
            vals.append(0)
            continue
        pre = tuple(g if g < m else m + parent[g - m] for g in t)
        vals.append(f.values[index_old[pre]])
    return Cochain(f.k, f.s, tuple(vals))


def reference_restrict(hc2, hc, g):
    """Each coarse atom entry expands into the sum of its refined children."""
    m = hc.m
    old = hc.subring if hc.subring is not None else Subring.full(hc.alg.ring)
    new = hc2.subring
    children = [[] for _ in old.blocks]
    for j2, b2 in enumerate(new.blocks):
        for i, b in enumerate(old.blocks):
            if b2 & b:
                children[i].append(j2)
                break
    index_new = index(hc2, g.k)
    vals = []
    for t in tuples(hc, g.k):
        acc = 0
        choices = [()]
        for gidx in t:
            if gidx < m:
                choices = [c + (gidx,) for c in choices]
            else:
                choices = [c + (m + j2,) for c in choices for j2 in children[gidx - m]]
        for u in choices:
            acc ^= g.values[index_new[u]]
        vals.append(acc)
    return Cochain(g.k, g.s, tuple(vals))


def test_rotation_round_trip():
    hc = complex_for(1, 2)
    for k in (1, 2, 3, 4):
        for seq in tuples(hc, k):
            assert rotate_back(rotate_forward(seq, 1), 1) == seq
            assert rotate_forward(rotate_back(seq, 1), 1) == seq


def test_rotation_moves_last_entry():
    assert rotate_forward((0, 1, 2), 0) == (2, 0, 1)
    assert rotate_back((2, 0, 1), 0) == (0, 1, 2)


def test_is_stable_examples():
    # only sequences framed by one atom are stable
    assert is_stable((0, 1, 0), 0)
    assert not is_stable((0, 1, 0), 1)
    assert not is_stable((0, 1), 0)
    assert is_stable((1,), 0)
    assert not is_stable((0, 0), 1)


def test_stable_sequences_are_fixed():
    assert rotate_forward((0, 1, 0), 0) == (0, 1, 0)
    assert rotate_back((0, 1, 0), 0) == (0, 1, 0)


def test_drop_helpers():
    assert drop_first((3, 1, 2)) == (1, 2)
    assert drop_last((3, 1, 2)) == (3, 1)
    # the truncation positions of sequence_links are the dropped tuples
    hc = complex_for(1, 2)
    for k in (1, 2, 3, 4):
        links, below = hc.links(k), tuples(hc, k - 1)
        for u, t in enumerate(tuples(hc, k)):
            assert below[links.suffix[u]] == drop_first(t)
            assert below[links.prefix[u]] == drop_last(t)


# -- position versions -------------------------------------------------------


def named(hc, k, orbit):
    """The orbit's members as tuples."""
    seqs = tuples(hc, k)
    return tuple(seqs[p] for p in orbit.sequences)


def test_orbit_decomposition_three_atoms():
    hc = complex_for(0, 3)
    orbits = orbit_decomposition(hc, 2)
    found = {named(hc, 2, orbit) for orbit in orbits}
    assert found == {
        ((0, 1), (1, 0)),
        ((0, 2), (2, 0)),
        ((1, 2), (2, 1)),
    }
    assert all(not orbit.stable and not orbit.r_fixed for orbit in orbits)
    by_start = {named(hc, 2, orbit)[0]: orbit for orbit in orbits}
    suffix, level1 = hc.links(2).suffix, tuples(hc, 1)
    assert tuple(level1[suffix[p]] for p in by_start[(0, 1)].sequences) == ((1,), (0,))


def test_orbit_decomposition_free_generator():
    # a constant free sequence is fixed by the rotation without being stable
    hc = complex_for(1, 1)
    orbits = {named(hc, 2, orbit): orbit for orbit in orbit_decomposition(hc, 2)}
    assert set(orbits) == {((0, 0),), ((0, 1), (1, 0))}
    fixed = orbits[((0, 0),)]
    assert fixed.r_fixed and not fixed.stable


def test_orbit_stable_singleton():
    hc = complex_for(0, 3)
    orbits = {named(hc, 3, orbit): orbit for orbit in orbit_decomposition(hc, 3)}
    stable = orbits[((0, 1, 0),)]
    assert stable.stable and not stable.r_fixed


def test_orbits_partition_sequences():
    for m, n in ((0, 3), (1, 2), (2, 2)):
        hc = complex_for(m, n)
        for k in (1, 2, 3, 4):
            orbits = orbit_decomposition(hc, k)
            seqs = [t for orbit in orbits for t in orbit.sequences]
            assert len(seqs) == len(set(seqs)) == len(tuples(hc, k))


@pytest.mark.parametrize("m, n", [(0, 3), (1, 1), (1, 2), (2, 2)])
def test_orbits_and_head_tails_match_the_tuple_reference(m, n):
    hc = complex_for(m, n)
    rng = random.Random(100 * m + n)
    for k in range(1, 6):
        orbits = orbit_decomposition(hc, k)
        reference = reference_orbits(hc, k)
        # same orbits in the same order; the positions walk each orbit
        # backwards from its least member
        assert [(named(hc, k, o), o.stable, o.r_fixed) for o in orbits] == [
            ((chain[0],) + chain[:0:-1], stable, r_fixed) for chain, stable, r_fixed in reference
        ]
        for s in (2 - k, 3 - k):
            f = hc.random_cocycle(k, s, rng)
            for orbit in orbits:
                ht = head_tail(hc, f, orbit)
                heads, tails = reference_head_tail(hc, f, named(hc, k, orbit), orbit.stable)
                assert ht.heads == tuple(heads[t] for t in named(hc, k, orbit))
                assert ht.tails == tuple(tails[t] for t in named(hc, k, orbit))
                assert ht.law_holds()
                assert all(heads[rotate_forward(t, m)] == tails[t] for t in heads)


def test_orbit_decomposition_rejects_zero_length():
    with pytest.raises(ValueError):
        orbit_decomposition(complex_for(0, 3), 0)


def test_head_tail_split():
    hc = complex_for(0, 3)
    rng = random.Random(7)
    first, last = hc.links(3)[:2]
    for _ in range(10):
        f = hc.random_cocycle(3, -1, rng)
        for orbit in orbit_decomposition(hc, 3):
            ht = head_tail(hc, f, orbit)
            assert ht.law_holds()
            for pos, head, tail in zip(orbit.sequences, ht.heads, ht.tails):
                val = f.values[pos]
                if orbit.stable:
                    assert head == tail == val
                else:
                    assert head ^ tail == val
                    assert head & ~hc.generator_mask(first[pos]) == 0
                    assert tail & ~hc.generator_mask(last[pos]) == 0


def test_head_tail_rejects_escaping_value():
    # a value outside both end ideals cannot come from a cocycle
    hc = complex_for(0, 3)
    idx = index(hc, 2)
    vals = [0] * len(idx)
    vals[idx[(0, 1)]] = 0b100
    f = Cochain(2, 0, tuple(vals))
    orbit = next(o for o in orbit_decomposition(hc, 2) if idx[(0, 1)] in o.sequences)
    with pytest.raises(NotACocycleError) as err:
        head_tail(hc, f, orbit)
    assert err.value.witness == (idx[(0, 1)], 0b100)


def test_solve_coboundary_documented_example():
    # the single-orbit cocycle supported on a stable sequence
    hc = complex_for(0, 3)
    idx = index(hc, 3)
    vals = [0] * len(idx)
    vals[idx[(0, 1, 0)]] = 0b001
    f = Cochain(3, -1, tuple(vals))
    assert hc.is_cocycle(f)
    g = solve_coboundary(hc, f)
    idx2 = index(hc, 2)
    expected = [0] * len(idx2)
    expected[idx2[(1, 0)]] = 0b001
    assert g == Cochain(2, -1, tuple(expected))
    assert hc.coboundary_of(g) == f


def test_solve_coboundary_random():
    rng = random.Random(11)
    cases = [
        (0, 3, 2, 0),
        (0, 3, 3, -1),
        (1, 2, 2, 0),
        (1, 1, 3, -1),
        (2, 2, 2, 1),
    ]
    for m, n, k, s in cases:
        hc = complex_for(m, n)
        for _ in range(10):
            f = hc.random_cocycle(k, s, rng)
            g = solve_coboundary(hc, f)
            assert g.k == k - 1 and g.s == s
            assert hc.coboundary_of(g) == f


def test_solve_coboundary_domain():
    hc = complex_for(0, 3)
    with pytest.raises(ValueError):
        solve_coboundary(hc, zero_cochain(hc, 1, 1))
    with pytest.raises(ValueError):
        solve_coboundary(hc, zero_cochain(hc, 3, -2))


def test_solve_coboundary_rejects_non_cocycle():
    hc = complex_for(0, 3)
    bad = None
    for bits in range(1, 1 << hc.cochain_dim(2, 0)):
        cand = hc.cochain_from_bits(2, 0, bits)
        if not hc.is_cocycle(cand):
            bad = cand
            break
    with pytest.raises(NotACocycleError):
        solve_coboundary(hc, bad)


def test_bottom_cocycles_vanish():
    for m, n in ((0, 3), (1, 1), (2, 0)):
        hc = complex_for(m, n)
        assert [hc.hh(k, -k).cocycles for k in (1, 2, 3, 4)] == [0, 0, 0, 0]


def test_bottom_cocycles_small_algebras():
    # below three generators the bottom row does not clear out
    def bottom(m, n):
        hc = complex_for(m, n)
        return [hc.hh(k, -k).cocycles for k in (1, 2, 3, 4)]

    assert bottom(0, 1) == [1, 0, 0, 0]
    assert bottom(0, 2) == [0, 1, 0, 1]
    assert bottom(1, 0) == [1, 1, 1, 1]


def test_extend_identity_adjoin():
    ring = BooleanRing(3)
    hc = HochschildComplex(ConnectedSumAlgebra(0, ring), Subring.trivial(ring))
    f = hc.random_cocycle(2, -1, random.Random(3))
    hc2, g = extend_cocycle(hc, ring.one, f)
    assert hc2 is hc and g == f


def test_extend_cocycle_strict():
    ring = BooleanRing(3)
    hc = HochschildComplex(ConnectedSumAlgebra(0, ring), Subring.trivial(ring))
    rng = random.Random(5)
    x = ring.atom(0) | ring.atom(1)
    for k, s in ((2, -1), (3, -2)):
        for _ in range(10):
            f = hc.random_cocycle(k, s, rng)
            hc2, g = extend_cocycle(hc, x, f)
            assert hc2.subring.blocks == (0b011, 0b100)
            assert hc2.is_cocycle(g)
            assert restrict_cochain(hc2, hc, g) == f


def test_extend_cocycle_strict_errors():
    ring = BooleanRing(3)
    hc = HochschildComplex(ConnectedSumAlgebra(0, ring), Subring.trivial(ring))
    with pytest.raises(ValueError):
        extend_cocycle(hc, ring.atom(0), zero_cochain(hc, 2, 0))

    hc_free = HochschildComplex(ConnectedSumAlgebra(1, BooleanRing(1)))
    vals = [0] * len(tuples(hc_free, 2))
    vals[0] = 0b1
    with pytest.raises(ValueError):
        extend_cocycle(hc_free, 0b1, Cochain(2, -1, tuple(vals)))

    coarse = HochschildComplex(
        ConnectedSumAlgebra(0, ring), Subring(ring, ((0b011), (0b100)))
    )
    idx = index(coarse, 2)
    vals = [0] * len(idx)
    vals[idx[(0, 1)]] = 0b10
    with pytest.raises(ValueError):
        extend_cocycle(coarse, ring.atom(0), Cochain(2, -1, tuple(vals)))


def test_extend_requires_boolean_part():
    hc = HochschildComplex(ConnectedSumAlgebra(2, None))
    f = zero_cochain(hc, 2, -1)
    with pytest.raises(ValueError):
        extend_cocycle(hc, 1, f)
    with pytest.raises(ValueError):
        extend_cocycle_split(hc, 1, f)


def test_extend_split_rejects_non_cocycle():
    ring = BooleanRing(3)
    hc = HochschildComplex(ConnectedSumAlgebra(1, ring), Subring.trivial(ring))
    bad = None
    for bits in range(1, 1 << hc.cochain_dim(2, -1)):
        cand = hc.cochain_from_bits(2, -1, bits)
        if not hc.is_cocycle(cand):
            bad = cand
            break
    with pytest.raises(NotACocycleError):
        extend_cocycle_split(hc, ring.atom(0), bad)


def test_extend_split_rejects_values_outside_module_degree_1():
    ring = BooleanRing(3)
    hc = HochschildComplex(ConnectedSumAlgebra(1, ring), Subring(ring, [0b011, 0b100]))
    f = hc.random_cocycle(3, 0, random.Random(4))
    with pytest.raises(ValueError, match="module degree 1"):
        extend_cocycle_split(hc, ring.atom(0), f)


def test_extend_cocycle_matches_the_tuple_reference_on_multiples_of_x():
    ring = BooleanRing(3)
    old = Subring(ring, [0b011, 0b100])
    x = ring.atom(0)
    new = old.adjoin(x)
    alg = ConnectedSumAlgebra(1, ring)
    hc, hc2 = HochschildComplex(alg, old), HochschildComplex(alg, new)
    rng = random.Random(12)
    for k in (2, 3, 4):
        for _ in range(5):
            f = hc.random_cocycle(k, 1 - k, rng)
            f = Cochain(k, 1 - k, tuple(((v >> 1) & x) << 1 for v in f.values))
            got_hc, g = extend_cocycle(hc, x, f)
            assert got_hc.subring == new
            assert g == reference_transport(hc, hc2, old, new, x, f)


def test_extend_split_tower():
    # refine twice and restrict back through each stage
    ring = BooleanRing(3)
    alg = ConnectedSumAlgebra(1, ring)
    hc0 = HochschildComplex(alg, Subring.trivial(ring))
    rng = random.Random(9)
    for k in (2, 3):
        for _ in range(10):
            f0 = hc0.random_cocycle(k, 1 - k, rng)
            hc1, f1 = extend_cocycle_split(hc0, 0b011, f0)
            assert hc1.subring.blocks == (0b011, 0b100)
            hc2, f2 = extend_cocycle_split(hc1, 0b001, f1)
            assert hc2.subring.blocks == (0b001, 0b010, 0b100)
            assert hc2.is_cocycle(f2)
            assert restrict_cochain(hc2, hc1, f2) == f1
            assert restrict_cochain(hc1, hc0, f1) == f0


def _subring(ring, blocks):
    return Subring(ring, [sum(ring.atom(a) for a in b) for b in blocks])


# (v_dim, atoms, coarse blocks, adjoined atoms): the refinement adjoins the
# union of the adjoined atoms to the coarse subring
REFINEMENTS = [
    (0, 3, ((0, 1, 2),), (0, 1)),
    (1, 3, ((0, 1), (2,)), (0,)),
    (2, 4, ((0, 1), (2, 3)), (1, 2)),
    (1, 2, ((0, 1),), (1,)),
]


@pytest.mark.parametrize("m, n, coarse_blocks, adjoined", REFINEMENTS)
def test_restrict_and_transport_match_the_tuple_reference(m, n, coarse_blocks, adjoined):
    ring = BooleanRing(n)
    alg = ConnectedSumAlgebra(m, ring)
    old = _subring(ring, coarse_blocks)
    x = sum(ring.atom(a) for a in adjoined)
    new = old.adjoin(x)
    assert new != old
    hc, hc2 = HochschildComplex(alg, old), HochschildComplex(alg, new)
    rng = random.Random(10 * m + n)
    for k in range(1, 5):
        for s in (-k, 1 - k, 2 - k):
            for _ in range(3):
                # random cochains, not cocycles
                g = hc2.cochain_from_bits(k, s, rng.getrandbits(hc2.cochain_dim(k, s)))
                assert restrict_cochain(hc2, hc, g) == reference_restrict(hc2, hc, g)
                # one walk carries the near part (the free part and the atoms
                # in x) through x and the rest through the complement of x
                f = hc.cochain_from_bits(k, s, rng.getrandbits(hc.cochain_dim(k, s)))
                near = (x << m) | ((1 << m) - 1)
                near_part = Cochain(k, s, tuple(v & near for v in f.values))
                far_part = Cochain(k, s, tuple(v & ~near for v in f.values))
                expected = reference_transport(hc, hc2, old, new, x, near_part)
                expected = expected + reference_transport(
                    hc, hc2, old, new, ring.complement(x), far_part
                )
                assert _transport(hc, hc2, x, f) == expected


def test_each_walk_reads_a_level_of_sequence_links_once(monkeypatch):
    # the refinement and rotation walks take a whole level of child positions
    # from one call, not one call per sequence; each job runs once first, so
    # the count leaves out the building of levels and child starts
    calls = []
    links = koszul.sequence_links

    def counted(*args):
        calls.append(args)
        return links(*args)

    monkeypatch.setattr(koszul, "sequence_links", counted)
    ring, k = BooleanRing(3), 6
    hc = HochschildComplex(ConnectedSumAlgebra(1, ring), _subring(ring, ((0, 1), (2,))))
    f = hc.random_cocycle(k, 1 - k, random.Random(6))
    extend_cocycle_split(hc, ring.atom(0), f)
    calls.clear()
    extend_cocycle_split(hc, ring.atom(0), f)
    assert len(calls) <= 3 * (k + 1)

    hc = complex_for(1, 3)
    f = hc.random_cocycle(k, -1, random.Random(6))
    solve_coboundary(hc, f)
    calls.clear()
    solve_coboundary(hc, f)
    assert len(calls) <= k + 1
