"""Hypothesis properties of the Koszul cochain complexes, the dg wire format
and lifting along acyclic fibrations.

Each property runs over random (v_dim, atoms, subring blocks, k, s); the
example budgets are small so that the whole file takes a few seconds.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from koszulhh.algebra import BooleanRing, ConnectedSumAlgebra, Subring
from koszulhh.coboundary import extend_cocycle_split, restrict_cochain, solve_coboundary
from koszulhh.gf2 import BitMatrix
from koszulhh.hochschild import HochschildComplex
from koszulhh.massey import (
    CohomologyClass,
    dg_algebra_from_dict,
    dg_algebra_to_dict,
    extend_with_acyclic_pairs,
    from_connected_sum,
    lift_coboundary,
    lift_cocycle,
    lift_defining_system,
    massey_product,
    trivial_defining_system,
)

PROPERTY = settings(max_examples=50, deadline=None)
SEEDS = st.randoms(use_true_random=False)


@st.composite
def complexes(draw, min_atoms=1):
    """A Koszul cochain complex over all atoms or over a drawn partition of them."""
    m = draw(st.integers(0, 2))
    n = draw(st.integers(min_atoms, 3))
    ring = BooleanRing(n) if n else None
    subring = None
    if n and draw(st.booleans()):
        labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        blocks = {}
        for a, label in enumerate(labels):
            blocks[label] = blocks.get(label, 0) | ring.atom(a)
        subring = Subring(ring, blocks.values())
    return HochschildComplex(ConnectedSumAlgebra(m, ring), subring)


def random_cochain(hc, k, s, rng):
    return hc.cochain_from_bits(k, s, rng.getrandbits(hc.cochain_dim(k, s)))


@PROPERTY
@given(complexes(min_atoms=0), st.integers(0, 5), st.integers(-1, 3), SEEDS)
def test_differential_squares_to_zero(hc, k, j, rng):
    f = random_cochain(hc, k, j - k, rng)
    assert hc.coboundary_of(hc.coboundary_of(f)).is_zero()


@PROPERTY
@given(complexes(min_atoms=0), st.integers(0, 3), st.integers(-1, 3))
def test_rank_bookkeeping(hc, k, j):
    s = j - k
    rep = hc.hh(k, s)
    assert rep.cochains == hc.cochain_dim(k, s)
    rank_out = hc.rank(k, s) if rep.cochains else 0
    diff = hc.differential(k, s)
    rows = [sum(1 << c for c in pair if c >= 0) for pair in zip(diff.first, diff.second)]
    assert rank_out == BitMatrix(rows, diff.n_cols).rank()
    assert rep.cocycles == rep.cochains - rank_out == len(hc.cocycle_space(k, s))
    assert rep.coboundaries == (hc.rank(k - 1, s) if k else 0)
    assert 0 <= rep.coboundaries <= rep.cocycles
    assert rep.cohomology == rep.cocycles - rep.coboundaries


@PROPERTY
@given(complexes(), st.integers(2, 4), st.integers(2, 3), SEEDS)
def test_solved_primitive_has_the_cocycle_as_coboundary(hc, k, j, rng):
    f = hc.random_cocycle(k, j - k, rng)
    g = solve_coboundary(hc, f)
    assert (g.k, g.s) == (k - 1, j - k)
    assert hc.coboundary_of(g) == f


@PROPERTY
@given(complexes(), st.integers(1, 3), st.data(), SEEDS)
def test_restriction_undoes_split_extension(hc, k, data, rng):
    ring = hc.alg.ring
    x = data.draw(st.integers(1, ring.one))
    f = hc.random_cocycle(k, 1 - k, rng)
    hc2, f2 = extend_cocycle_split(hc, x, f)
    assert hc2.is_cocycle(f2)
    if hc2 is hc:
        assert f2 == f
    else:
        assert restrict_cochain(hc2, hc, f2) == f


@PROPERTY
@given(
    st.integers(0, 2),
    st.integers(0, 3),
    st.integers(2, 4),
    st.lists(st.integers(1, 3), max_size=3),
)
def test_dg_json_round_trip(m, n, top, pair_degrees):
    alg = from_connected_sum(ConnectedSumAlgebra(m, BooleanRing(n) if n else None), top)
    dg, _ = extend_with_acyclic_pairs(alg, [d for d in pair_degrees if d < top])
    data = dg_algebra_to_dict(dg)
    back = dg_algebra_from_dict(json.loads(json.dumps(data)))
    assert dg_algebra_to_dict(back) == data
    assert back.dims == dg.dims and back.mult == dg.mult and back.unit == dg.unit
    assert all(isinstance(a, BitMatrix) and a == b for a, b in zip(back.diffs, dg.diffs))


@PROPERTY
@given(
    st.integers(0, 1),
    st.integers(0, 3),
    st.integers(2, 5),
    st.lists(st.integers(1, 4), max_size=3),
    st.data(),
)
def test_lifts_along_random_acyclic_fibrations(m, n, top, pair_degrees, data):
    base = from_connected_sum(ConnectedSumAlgebra(m, BooleanRing(n) if n else None), top)
    src, q = extend_with_acyclic_pairs(base, [d for d in pair_degrees if d < top])
    rng = data.draw(SEEDS)
    for d in range(top + 1):
        z = base.random_cocycle(d, rng)
        x = lift_cocycle(q, z)
        assert src.is_cocycle(x) and q.apply(x).bits == z.bits
        # base has zero differential, so q(b) = 0 = diff(c)
        b = src.diff(src.random_element(d, rng))
        c = base.random_element(d, rng)
        e = lift_coboundary(q, b, c)
        assert src.diff(e).bits == b.bits and q.apply(e).bits == c.bits
    # distinct neighbouring degree-1 basis classes multiply to zero
    ones = base.dim(1)
    if ones < 2:
        return
    picks = [data.draw(st.integers(0, ones - 1))]
    for _ in range(data.draw(st.integers(1, 2))):
        picks.append((picks[-1] + data.draw(st.integers(1, ones - 1))) % ones)
    classes = [CohomologyClass(base, base.element(1, 1 << i)) for i in picks]
    ds = trivial_defining_system(base, classes)
    up = [CohomologyClass(src, lift_cocycle(q, c.element)) for c in classes]
    lifted = lift_defining_system(q, up, ds)
    assert all(q.apply(lifted.entry(*slot)).bits == ds.entry(*slot).bits for slot in ds.slots())
    down = CohomologyClass(base, q.apply(massey_product(lifted).element))
    assert down.same_class(massey_product(ds))
