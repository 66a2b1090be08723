"""Acceptance suite: the twelve headline checks, all exact, at desk scale.

Every assertion is an equality over the two-element field; there are no
tolerances anywhere.  Randomized checks use fixed seeds.  The two frozen
tables at the top (exceptional dimensions, bar-oracle truncation corner)
were computed once with this package and pinned.
"""

import random

from koszulhh.algebra import BooleanRing, ConnectedSumAlgebra, GradedElement, Subring
from koszulhh.coboundary import (
    extend_cocycle_split,
    head_tail,
    orbit_decomposition,
    restrict_cochain,
    solve_coboundary,
)
from koszulhh.gf2 import BitMatrix
from koszulhh.hochschild import HochschildComplex, kadeishvili_check
from koszulhh.koszul import admissible_in_generic_span, verify_koszul
from koszulhh.massey import (
    CohomologyClass,
    extend_with_acyclic_pairs,
    from_connected_sum,
    lift_coboundary,
    lift_cocycle,
    lift_defining_system,
    massey_product,
    strong_massey_check,
    trivial_defining_system,
)

BAR_CAP = 330_000

# dim HH^{1-s, s} for three atoms, frozen after the Koszul and bar paths agreed
EXCEPTIONAL_FIXTURES = {
    (0, 3, 2, -1): 3,
    (0, 3, 3, -2): 6,
    (1, 3, 2, -1): 18,
    (1, 3, 3, -2): 60,
}

# cells whose full-depth bar matrices exceed BAR_CAP, with the first skipped degree
BAR_SKIP_CORNER = {
    (1, 3, 6, -1): 8,
    (1, 3, 6, -2): 8,
    (1, 3, 6, -3): 8,
    (1, 3, 6, -4): 8,
    (2, 3, 5, -3): 8,
    (2, 3, 6, -4): 7,
}


def make_algebra(m, n):
    return ConnectedSumAlgebra(m, BooleanRing(n) if n else None)


def kadeishvili_cells():
    return [
        (m, n, k, 2 - k)
        for m in range(3)
        for n in range(4)
        for k in range(3, 7)
    ]


def negative_weight_cells():
    return [
        (m, 3, k, s)
        for m in (0, 1)
        for s in (-1, -2, -3)
        for k in range(7)
        if k != 1 - s
    ]


def dual_cells():
    return [
        (m, 0, k, j - k)
        for m in range(1, 5)
        for k in range(7)
        for j in range(2, 7)
    ]


def test_kadeishvili_vanishing():
    for m in range(3):
        for n in range(4):
            alg = make_algebra(m, n)
            report = kadeishvili_check(alg, 6)
            assert report.passed and report.failures == (), (m, n, report.failures)
            hc = HochschildComplex(alg)
            for k in range(3, 7):
                assert hc.hh(k, 2 - k).cohomology == 0, (m, n, k)


def test_negative_weight_vanishing():
    complexes = {m: HochschildComplex(make_algebra(m, 3)) for m in (0, 1)}
    for m, n, k, s in negative_weight_cells():
        assert complexes[m].hh(k, s).cohomology == 0, (m, k, s)


def test_bottom_cocycles_trivial():
    for m in range(6):
        for n in range(6):
            if not 3 <= m + n <= 5:
                continue
            hc = HochschildComplex(make_algebra(m, n))
            for k in range(1, 6):
                assert hc.hh(k, -k).cocycles == 0, (m, n, k)


def test_dual_algebra_vanishing():
    for m, n, k, s in dual_cells():
        assert HochschildComplex(make_algebra(m, n)).hh(k, s).cohomology == 0, (m, k, s)


def test_explicit_coboundary_solver():
    rng = random.Random(20)
    for m in range(3):
        for n in (1, 2, 3):
            hc = HochschildComplex(make_algebra(m, n))
            for k in (2, 3, 4):
                orbits = orbit_decomposition(hc, k)
                for j in (2, 3):
                    s = j - k
                    for _ in range(100):
                        f = hc.random_cocycle(k, s, rng)
                        g = solve_coboundary(hc, f)
                        assert hc.coboundary_of(g) == f
                        for orbit in orbits:
                            assert head_tail(hc, f, orbit).law_holds()


def test_koszulity():
    for m in range(5):
        for n in range(5):
            if m + n > 4:
                continue
            report = verify_koszul(make_algebra(m, n), 6)
            assert report.passed and report.failures == (), (m, n, report.failures)
            assert report.components_checked > 0


def test_basis_oracle_equivalence():
    for m in range(5):
        for n in range(5):
            if m + n > 4:
                continue
            alg = make_algebra(m, n)
            for k in range(6):
                assert admissible_in_generic_span(alg, k), (m, n, k)


def test_bar_complex_cross_check():
    cells = set(kadeishvili_cells()) | set(negative_weight_cells()) | set(dual_cells())
    complexes = {}
    skipped = {}
    for m, n, k, s in sorted(cells):
        hc = complexes.get((m, n))
        if hc is None:
            hc = complexes[(m, n)] = HochschildComplex(make_algebra(m, n))
        report = hc.bar_oracle(k, s, 8, cap=BAR_CAP)
        if report.skipped_from is not None:
            skipped[(m, n, k, s)] = report.skipped_from
            continue
        assert all(f.increment == 0 for f in report.factors), (m, n, k, s)
        assert report.total == 0
    assert skipped == BAR_SKIP_CORNER


def test_cocycle_extension_towers():
    rng = random.Random(2026)
    for _ in range(100):
        n = rng.randint(2, 4)
        m = rng.randint(0, 2)
        ring = BooleanRing(n)
        # at most n - 1 labels, so some block keeps at least two atoms
        label_count = rng.randint(1, n - 1)
        blocks = {}
        for atom in range(n):
            label = rng.randrange(label_count)
            blocks[label] = blocks.get(label, 0) | (1 << atom)
        subring = Subring(ring, tuple(blocks.values()))
        wide = [b for b in subring.blocks if bin(b).count("1") >= 2]
        block = rng.choice(wide)
        x = rng.choice([1 << i for i in range(n) if (block >> i) & 1])
        if rng.getrandbits(1):
            for other in subring.blocks:
                if other != block and rng.getrandbits(1):
                    x |= other
        hc = HochschildComplex(ConnectedSumAlgebra(m, ring), subring)
        k = rng.choice((2, 3))
        f = hc.random_cocycle(k, 1 - k, rng)
        refined, f_x = extend_cocycle_split(hc, x, f)
        assert refined.is_cocycle(f_x)
        assert restrict_cochain(refined, hc, f_x) == f


def test_strong_massey_vanishing():
    H = from_connected_sum(make_algebra(2, 3), 8)
    report = strong_massey_check(H, samples=200, max_n=5, seed=0)
    assert report.checked == 200
    assert report.all_zero and report.failures == ()


def _kernel_tuple(tgt, size, degrees, rng):
    """A tuple whose neighbouring products vanish, sampled left to right."""
    elts = [tgt.random_element(rng.choice(degrees), rng)]
    for _ in range(size - 1):
        d = rng.choice(degrees)
        prev = elts[-1]
        cols = [
            tgt.product(prev, GradedElement(d, 1 << j)).bits for j in range(tgt.dim(d))
        ]
        mat = BitMatrix(cols, tgt.dim(prev.degree + d)).transpose()
        bits = 0
        for v in mat.kernel_basis():
            if rng.getrandbits(1):
                bits ^= v
        elts.append(GradedElement(d, bits))
    return elts


def test_lifting_along_acyclic_fibrations():
    rng = random.Random(41)
    fibrations = []
    for m, n, top in ((0, 3, 3), (1, 2, 5), (2, 1, 4), (0, 2, 5)):
        tgt = from_connected_sum(make_algebra(m, n), top)
        assert sum(tgt.dims) <= 12
        pairs = [rng.randint(1, top - 1) for _ in range(rng.randint(1, 3))]
        src, proj = extend_with_acyclic_pairs(tgt, pairs)
        src.validate()
        proj.validate()
        assert proj.degreewise_surjective() and proj.is_quasi_iso()
        fibrations.append((tgt, src, proj))
    for i in range(50):
        tgt, src, proj = fibrations[i % len(fibrations)]
        d = rng.randint(0, tgt.top)
        z = tgt.random_cocycle(d, rng)
        lifted = lift_cocycle(proj, z)
        assert src.is_cocycle(lifted)
        assert proj.apply(lifted).bits == z.bits

        d = rng.randint(0, tgt.top - 1)
        b = src.diff(src.random_element(d, rng))
        c = tgt.random_element(d, rng)
        out = lift_coboundary(proj, b, c)
        assert src.diff(out).bits == b.bits
        assert proj.apply(out).bits == c.bits

        classes = [
            CohomologyClass(tgt, e)
            for e in _kernel_tuple(tgt, rng.choice((2, 3)), (1, 2), rng)
        ]
        ds = trivial_defining_system(tgt, classes)
        up = [CohomologyClass(src, lift_cocycle(proj, c0.element)) for c0 in classes]
        lifted_ds = lift_defining_system(proj, up, ds)
        for slot in ds.slots():
            assert proj.apply(lifted_ds.entry(*slot)).bits == ds.entry(*slot).bits
        down = CohomologyClass(tgt, proj.apply(massey_product(lifted_ds).element))
        assert down.same_class(massey_product(ds))


def test_regression_fixtures():
    for (m, n, k, s), expected in EXCEPTIONAL_FIXTURES.items():
        alg = make_algebra(m, n)
        hc = HochschildComplex(alg)
        koszul_side = hc.hh(k, s).cohomology
        bar = hc.bar_oracle(k, s, 8, cap=BAR_CAP)
        assert bar.skipped_from is None
        assert koszul_side == bar.total == expected, (m, n, k, s)
