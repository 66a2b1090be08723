"""Tests for dg algebras, defining systems, Massey products, and lifting."""

import json
import random

import pytest

from koszulhh.algebra import BooleanRing, ConnectedSumAlgebra, GradedElement
from koszulhh.caps import MASSEY_CAP
from koszulhh.cli import main
from koszulhh.errors import CapExceeded, InvalidDefiningSystemError, NotACocycleError
from koszulhh.gf2 import BitMatrix, EchelonBasis, echelon_rank
from koszulhh.massey import (
    CohomologyClass,
    DefiningSystem,
    DgAlgebra,
    DgMap,
    StrongMasseyReport,
    dg_algebra_from_dict,
    dg_algebra_to_dict,
    extend_with_acyclic_pairs,
    from_connected_sum,
    lift_coboundary,
    lift_cocycle,
    lift_defining_system,
    massey_product,
    massey_product_set,
    strong_massey_check,
    trivial_defining_system,
)


def zero_diff_algebra(m, n, top):
    ring = BooleanRing(n) if n else None
    return from_connected_sum(ConnectedSumAlgebra(m, ring), top)


def fibration(m, n, top, pair_degrees):
    base = zero_diff_algebra(m, n, top)
    return (base,) + extend_with_acyclic_pairs(base, pair_degrees)


def atom_class(alg, n_free, i):
    return CohomologyClass(alg, alg.element(1, 1 << (n_free + i)))


def test_dg_algebra_rejects_nonsquaring_differential():
    eye = BitMatrix([1], 1)
    with pytest.raises(ValueError):
        DgAlgebra((1, 1, 1), (eye, eye), {(0, 0, 0, 0): 1, (0, 0, 1, 0): 1, (1, 0, 0, 0): 1, (0, 0, 2, 0): 1, (2, 0, 0, 0): 1})


def test_dg_algebra_shape_errors():
    with pytest.raises(ValueError):
        DgAlgebra((1, 2), (), {})
    with pytest.raises(ValueError):
        DgAlgebra((1, 2), (BitMatrix.zeros(1, 1),), {})
    with pytest.raises(ValueError):
        DgAlgebra((1,), (), {(0, 0, 0, 3): 1})
    with pytest.raises(ValueError):
        DgAlgebra((1,), (), {(0, 0, 0, 0): 1}, unit_bits=2)


def test_from_connected_sum():
    alg = ConnectedSumAlgebra(2, BooleanRing(3))
    H = from_connected_sum(alg, 8)
    assert H.dims == (1, 5, 3, 3, 3, 3, 3, 3, 3)
    assert H.has_zero_differential()
    H.validate()
    x1 = H.element(1, 1 << 2)
    x2 = H.element(1, 1 << 3)
    assert H.product(x1, x1).bits == 0b001
    assert H.product(x1, x2).bits == 0
    v1 = H.element(1, 1)
    assert H.product(v1, v1).bits == 0


def test_extension_dims_and_projection():
    base, ext, proj = fibration(1, 2, 5, [2, 3])
    assert base.dims == (1, 3, 2, 2, 2, 2)
    assert ext.dims == (1, 3, 3, 4, 3, 2)
    ext.validate()
    proj.validate()
    assert proj.degreewise_surjective()
    assert proj.is_quasi_iso()
    assert [ext.rank_diff(d) for d in range(6)] == [0, 0, 1, 1, 0, 0]
    # projection kills exactly the adjoined coordinates
    lower = ext.element(2, 1 << 2)
    assert proj.apply(lower).bits == 0
    assert not ext.is_cocycle(lower)


def test_extension_rejects_bad_pair_degrees():
    base = zero_diff_algebra(1, 2, 5)
    with pytest.raises(ValueError):
        extend_with_acyclic_pairs(base, [0])
    with pytest.raises(ValueError):
        extend_with_acyclic_pairs(base, [5])


def test_dg_map_shape_errors():
    base, ext, proj = fibration(0, 2, 3, [1])
    with pytest.raises(ValueError):
        DgMap(ext, base, proj.mats[:-1])
    other = zero_diff_algebra(0, 2, 2)
    with pytest.raises(ValueError):
        DgMap(ext, other, proj.mats[:3])


def test_cohomology_class_checks_closedness():
    base, ext, proj = fibration(1, 2, 5, [2, 3])
    with pytest.raises(NotACocycleError):
        CohomologyClass(ext, ext.element(2, 1 << 2))
    upper = ext.element(3, ext.diffs[2].mul_vec(1 << 2))
    cls = CohomologyClass(ext, upper)
    assert cls.is_zero_class() and cls.degree == 3


def test_same_class_modulo_boundaries():
    base, ext, proj = fibration(1, 2, 5, [2, 3])
    rng = random.Random(2)
    a = ext.random_cocycle(2, rng)
    boundary = ext.diff(ext.random_element(1, rng))
    shifted = a ^ boundary
    assert CohomologyClass(ext, a).same_class(CohomologyClass(ext, shifted))
    H = zero_diff_algebra(0, 3, 4)
    assert not atom_class(H, 0, 0).same_class(atom_class(H, 0, 1))


def test_coboundary_preimage():
    base, ext, proj = fibration(1, 2, 5, [2, 3])
    rng = random.Random(4)
    e = ext.random_element(2, rng)
    b = ext.diff(e)
    pre = ext.coboundary_preimage(b)
    assert pre is not None and ext.diff(pre).bits == b.bits
    nontrivial = lift_cocycle(proj, base.element(1, 1))
    assert ext.coboundary_preimage(nontrivial) is None
    assert ext.is_coboundary(b) and not ext.is_coboundary(nontrivial)
    # a zero element is exact in every degree, inside the window or not
    for d in (-1, 0, ext.top, ext.top + 1):
        assert ext.is_coboundary(ext.zero(d))
    assert not ext.is_coboundary(ext.unit)


def test_defining_system_bookkeeping():
    H = zero_diff_algebra(0, 3, 4)
    ds = DefiningSystem(H, (1, 1, 1))
    assert ds.n == 3
    assert ds.slots() == [(1, 2), (2, 3), (3, 4), (1, 3), (2, 4)]
    assert ds.expected_degree(1, 2) == 1
    assert ds.expected_degree(1, 3) == 1
    assert ds.expected_degree(1, 4) == 1


def test_defining_system_validate_errors():
    H = zero_diff_algebra(0, 3, 4)
    ds = DefiningSystem(H, (1, 1))
    with pytest.raises(InvalidDefiningSystemError) as exc:
        ds.validate()
    assert exc.value.relation == (1, 2)

    ds.entries[(1, 2)] = H.element(2, 0)
    ds.entries[(2, 3)] = H.element(1, 0)
    with pytest.raises(InvalidDefiningSystemError) as exc:
        ds.validate()
    assert exc.value.relation == (1, 2)

    # x1 times x1 is x1, so the interior relation cannot close
    bad = DefiningSystem(H, (1, 1, 1))
    x1 = H.element(1, 0b001)
    bad.entries = {
        (1, 2): x1,
        (2, 3): x1,
        (3, 4): H.element(1, 0),
        (1, 3): H.element(1, 0),
        (2, 4): H.element(1, 0),
    }
    with pytest.raises(InvalidDefiningSystemError) as exc:
        bad.validate()
    assert exc.value.relation == (1, 3)


def test_trivial_defining_system():
    H = zero_diff_algebra(0, 3, 4)
    classes = [atom_class(H, 0, i) for i in (0, 1, 2)]
    ds = trivial_defining_system(H, classes)
    ds.validate()
    assert massey_product(ds).is_zero_class()

    with pytest.raises(InvalidDefiningSystemError) as exc:
        trivial_defining_system(H, [classes[0], classes[0]])
    assert exc.value.relation == (1, 3)

    base, ext, proj = fibration(1, 2, 5, [2, 3])
    lifted = CohomologyClass(ext, lift_cocycle(proj, base.element(1, 1)))
    with pytest.raises(ValueError):
        trivial_defining_system(ext, [lifted, lifted])


def test_massey_product_set_enumerates_all_systems():
    H = zero_diff_algebra(0, 3, 4)
    classes = [atom_class(H, 0, i) for i in (0, 1, 2)]
    reps = massey_product_set(H, classes)
    assert reps == {0b000, 0b001, 0b100, 0b101}
    rep = massey_product(trivial_defining_system(H, classes))
    assert rep.element.bits in reps
    with pytest.raises(InvalidDefiningSystemError):
        massey_product_set(H, classes[:1])


def test_massey_product_set_cap():
    base, ext, proj = fibration(1, 2, 5, [2, 3])
    # two interior slots of degree 1, each free over three cocycles
    classes = [CohomologyClass(ext, ext.element(1, bits)) for bits in (0b010, 0b100, 0b010)]
    with pytest.raises(CapExceeded) as exc:
        massey_product_set(ext, classes, cap=2)
    assert exc.value.needed == 64 and exc.value.cap == 2
    assert "2**6" in str(exc.value)
    assert massey_product_set(ext, classes, cap=64) == reference_product_set(ext, classes)


def test_massey_product_set_fixes_the_representatives():
    # the boundaries next to a class are not enumerated: no interior slot,
    # so one system, where the full enumeration needs four
    base, ext, proj = fibration(1, 2, 5, [2, 3])
    c = CohomologyClass(ext, ext.element(3, ext.cocycle_basis(3)[0]))
    assert massey_product_set(ext, [c, c], cap=1) == {0}
    with pytest.raises(CapExceeded) as exc:
        reference_product_set(ext, [c, c], cap=1)
    assert exc.value.needed == 4


def test_massey_product_set_rejects_classes_of_another_algebra():
    H = zero_diff_algebra(0, 3, 4)
    ext, _ = extend_with_acyclic_pairs(H, [1, 2])
    classes = [atom_class(H, 0, i) for i in (0, 1, 2)]
    with pytest.raises(ValueError, match="class lives in a different algebra"):
        massey_product_set(ext, classes)


def reference_product_set(alg, classes, cap=MASSEY_CAP):
    """Brute force over every defining system, representatives included.

    Adjacent entries range over each class plus any coboundary, interior
    entries over every solution of their relation; the products are summed
    here rather than through ``DefiningSystem``.
    """
    n = len(classes)
    proto = DefiningSystem(alg, tuple(c.degree for c in classes))
    slots = proto.slots()

    def boundaries(d):
        basis = EchelonBasis(lowest=True)
        if 1 <= d <= alg.top:
            basis.extend(alg.diffs[d - 1].transpose().rows)
        return basis

    spans = []
    for i, j in slots:
        d = proto.expected_degree(i, j)
        spans.append(list(boundaries(d).rows.values()) if j - i == 1 else alg.cocycle_basis(d))
    total = 1 << sum(len(span) for span in spans)
    if total > cap:
        raise CapExceeded("reference enumeration exceeds the cap", needed=total, cap=cap)
    out_boundaries = boundaries(proto.expected_degree(1, n + 1) + 1)
    results = set()

    def fill(pos, entries):
        if pos == len(slots):
            out = 0
            for t in range(2, n + 1):
                out ^= alg.product(entries[(1, t)], entries[(t, n + 1)]).bits
            results.add(out_boundaries.reduce(out))
            return
        i, j = slots[pos]
        d = proto.expected_degree(i, j)
        if j - i == 1:
            base = classes[i - 1].element.bits
        else:
            rhs = 0
            for t in range(i + 1, j):
                rhs ^= alg.product(entries[(i, t)], entries[(t, j)]).bits
            if 0 <= d < alg.top:
                base = alg.diffs[d].solve(rhs)
                if base is None:
                    return
            elif rhs:
                return
            else:
                base = 0
        span = spans[pos]
        for mask in range(1 << len(span)):
            bits = base
            for idx, z in enumerate(span):
                if (mask >> idx) & 1:
                    bits ^= z
            entries[(i, j)] = GradedElement(d, bits)
            fill(pos + 1, entries)

    fill(0, {})
    return results


def outer_shift(alg, classes):
    """Is the subspace by which the outer entries' cocycles move the corner
    nonzero modulo the coboundaries?"""
    n = len(classes)
    if n < 3:
        return False
    proto = DefiningSystem(alg, tuple(c.degree for c in classes))
    d = proto.expected_degree(1, n + 1) + 1
    rows = list(alg.diffs[d - 1].transpose().rows) if 1 <= d <= alg.top else []
    first, last = classes[0].element, classes[-1].element
    right, left = proto.expected_degree(2, n + 1), proto.expected_degree(1, n)
    moves = [alg.product(first, GradedElement(right, z)).bits for z in alg.cocycle_basis(right)]
    moves += [alg.product(GradedElement(left, z), last).bits for z in alg.cocycle_basis(left)]
    return echelon_rank(rows + moves) > echelon_rank(rows)


def test_massey_product_set_matches_the_brute_force_reference():
    rng = random.Random(20261018)
    compared = with_boundaries = longer = shifted = 0
    while compared < 300:
        top = rng.randint(4, 6)
        base = zero_diff_algebra(rng.randint(0, 2), rng.randint(1, 3), top)
        pairs = [rng.randint(1, top - 1) for _ in range(rng.randint(1, 3))]
        ext, _ = extend_with_acyclic_pairs(base, pairs)
        degrees = [rng.randint(0, 3) for _ in range(rng.randint(2, 4))]
        classes = [CohomologyClass(ext, ext.random_cocycle(d, rng)) for d in degrees]
        try:
            expected = reference_product_set(ext, classes, cap=1 << 10)
        except CapExceeded:
            continue
        assert massey_product_set(ext, classes) == expected, (ext.dims, pairs, classes)
        compared += 1
        with_boundaries += any(ext.rank_diff(d - 1) for d in degrees)
        longer += len(classes) >= 4
        shifted += outer_shift(ext, classes)
    # the inputs must exercise the representatives' boundary freedom, the
    # inner entries and the outer entries' shift of the corner
    assert with_boundaries >= 100
    assert longer >= 50
    assert shifted >= 50


def test_massey_product_set_matches_the_reference_on_longer_tuples():
    # five and six classes: inner entries that later inner entries multiply,
    # so each walk must leave the relation sums as it found them
    rng = random.Random(20261020)
    compared = 0
    while compared < 120:
        top = rng.randint(3, 6)
        base = zero_diff_algebra(rng.randint(0, 2), rng.randint(1, 3), top)
        pairs = [rng.randint(1, top - 1) for _ in range(rng.randint(0, 3))]
        alg = extend_with_acyclic_pairs(base, pairs)[0] if pairs else base
        degrees = [rng.randint(0, 2) for _ in range(rng.randint(5, 6))]
        classes = [CohomologyClass(alg, alg.random_cocycle(d, rng)) for d in degrees]
        try:
            expected = reference_product_set(alg, classes, cap=1 << 10)
        except CapExceeded:
            continue
        assert massey_product_set(alg, classes) == expected, (alg.dims, pairs, classes)
        compared += 1


def test_strong_massey_check():
    H = zero_diff_algebra(2, 3, 8)
    report = strong_massey_check(H, samples=50, max_n=4, seed=1)
    assert report.checked == 50
    assert report.all_zero and report.failures == ()

    base, ext, proj = fibration(1, 2, 5, [2, 3])
    with pytest.raises(ValueError):
        strong_massey_check(ext, samples=1)


def unmemoised_strong_check(alg, samples, max_n, seed):
    """strong_massey_check as it was before the kernel memo: the kernel of
    left multiplication is recomputed for every drawn element."""
    rng = random.Random(seed)
    degrees_avail = [d for d in (1, 2) if alg.dim(d) > 0]
    checked = 0
    failures = []
    for _ in range(samples):
        n = rng.randint(2, max_n)
        elts = [alg.random_element(rng.choice(degrees_avail), rng)]
        for _ in range(n - 1):
            d = rng.choice(degrees_avail)
            prev = elts[-1]
            cols = [alg.product(prev, GradedElement(d, 1 << j)).bits for j in range(alg.dim(d))]
            kernel = BitMatrix(cols, alg.dim(prev.degree + d)).transpose().kernel_basis()
            bits = 0
            for v in kernel:
                if rng.getrandbits(1):
                    bits ^= v
            elts.append(GradedElement(d, bits))
        classes = [CohomologyClass(alg, e) for e in elts]
        result = massey_product(trivial_defining_system(alg, classes))
        checked += 1
        if not result.is_zero_class():
            failures.append(tuple((e.degree, e.bits) for e in elts))
    return StrongMasseyReport(samples, max_n, checked, not failures, tuple(failures))


@pytest.mark.parametrize("m, n", [(1, 3), (2, 2), (0, 3)])
def test_strong_massey_check_draws_as_without_the_kernel_memo(m, n):
    H = zero_diff_algebra(m, n, 8)
    for seed in (0, 5, 2026):
        for max_n in (2, 5):
            expected = unmemoised_strong_check(H, 150, max_n, seed)
            assert strong_massey_check(H, 150, max_n, seed) == expected


def test_lift_cocycle():
    base, ext, proj = fibration(1, 2, 5, [2, 3])
    rng = random.Random(8)
    for d in range(6):
        for _ in range(5):
            target = base.random_cocycle(d, rng)
            lifted = lift_cocycle(proj, target)
            assert ext.is_cocycle(lifted)
            assert proj.apply(lifted).bits == target.bits


def test_lift_cocycle_rejects_open_target():
    base, ext, proj = fibration(1, 2, 5, [2, 3])
    ext2, proj2 = extend_with_acyclic_pairs(ext, [2])
    with pytest.raises(NotACocycleError):
        lift_cocycle(proj2, ext.element(2, 1 << 2))
    rng = random.Random(13)
    target = ext.random_cocycle(3, rng)
    lifted = lift_cocycle(proj2, target)
    assert proj2.apply(lifted).bits == target.bits


def test_lift_coboundary():
    base, ext, proj = fibration(1, 2, 5, [2, 3])
    rng = random.Random(21)
    for d in (1, 2, 3):
        for _ in range(5):
            b = ext.diff(ext.random_element(d, rng))
            c = base.random_element(d, rng)
            out = lift_coboundary(proj, b, c)
            assert ext.diff(out).bits == b.bits
            assert proj.apply(out).bits == c.bits


def test_lift_coboundary_checks_image():
    base, ext, proj = fibration(1, 2, 5, [2, 3])
    b = lift_cocycle(proj, base.element(1, 1))
    with pytest.raises(ValueError):
        lift_coboundary(proj, b, base.element(0, 0))


def test_lift_defining_system():
    H = zero_diff_algebra(0, 3, 4)
    ext, proj = extend_with_acyclic_pairs(H, [1, 2])
    proj.validate()
    target_classes = [atom_class(H, 0, i) for i in (0, 1, 2)]
    ds = trivial_defining_system(H, target_classes)
    source_classes = [
        CohomologyClass(ext, lift_cocycle(proj, c.element)) for c in target_classes
    ]
    lifted = lift_defining_system(proj, source_classes, ds)
    lifted.validate()
    for slot in ds.slots():
        assert proj.apply(lifted.entry(*slot)).bits == ds.entry(*slot).bits
    down = CohomologyClass(H, proj.apply(massey_product(lifted).element))
    assert down.same_class(massey_product(ds))


def test_lifts_into_one_degree_eliminate_one_stack(monkeypatch):
    # every entry of a triple product of degree-1 classes lies in degree 1:
    # the five lifts read the one reduced stack of degree 1, and the class
    # checks one differential of each algebra, three eliminations in all
    H = zero_diff_algebra(0, 3, 4)
    ext, proj = extend_with_acyclic_pairs(H, [1, 2])
    target_classes = [atom_class(H, 0, i) for i in (0, 1, 2)]
    ds = trivial_defining_system(H, target_classes)
    calls = []
    back_substitute = EchelonBasis.back_substitute
    monkeypatch.setattr(
        EchelonBasis, "back_substitute", lambda basis: calls.append(basis) or back_substitute(basis)
    )
    up = [CohomologyClass(ext, lift_cocycle(proj, c.element)) for c in target_classes]
    assert len(calls) == 1
    lift_defining_system(proj, up, ds)
    assert len(calls) == 3


def test_lift_defining_system_input_checks():
    H = zero_diff_algebra(0, 3, 4)
    ext, proj = extend_with_acyclic_pairs(H, [1, 2])
    classes = [atom_class(H, 0, i) for i in (0, 1)]
    ds = trivial_defining_system(H, classes)
    wrong_home = DefiningSystem(ext, ds.degrees, dict(ds.entries))
    with pytest.raises(ValueError):
        lift_defining_system(proj, classes, wrong_home)
    with pytest.raises(ValueError):
        lift_defining_system(proj, classes[:1], ds)


def test_lifts_along_a_map_that_is_not_surjective_fail():
    # the zero map cannot reach the nonzero cocycle in degree 1
    base = zero_diff_algebra(0, 2, 3)
    zero = DgMap(base, base, tuple(BitMatrix.zeros(n, n) for n in base.dims))
    with pytest.raises(ValueError, match="does not lift"):
        lift_cocycle(zero, base.element(1, 1))
    with pytest.raises(ValueError, match="does not lift"):
        lift_coboundary(zero, base.zero(2), base.element(1, 1))


def test_lift_defining_system_rejects_a_source_class_of_another_class():
    H = zero_diff_algebra(0, 3, 4)
    ext, proj = extend_with_acyclic_pairs(H, [1, 2])
    target_classes = [atom_class(H, 0, i) for i in (0, 1, 2)]
    ds = trivial_defining_system(H, target_classes)
    up = [CohomologyClass(ext, lift_cocycle(proj, c.element)) for c in target_classes]
    with pytest.raises(ValueError, match="source class 2 does not map to the class of entry 2"):
        lift_defining_system(proj, [up[0], up[0], up[2]], ds)


def test_dict_round_trip():
    base, ext, proj = fibration(1, 2, 5, [2, 3])
    data = dg_algebra_to_dict(ext)
    json.dumps(data)
    back = dg_algebra_from_dict(data)
    assert back.dims == ext.dims
    assert back.diffs == ext.diffs
    assert back.mult == ext.mult
    assert back.unit.bits == ext.unit.bits


def test_massey_class_representatives_clear_the_lowest_boundary_pivots():
    # d(a) = u + w and b * b = u: the class of u is represented by w, the
    # remainder modulo u + w that is zero at the lowest bit of u + w
    mult = {(0, 0, 0, 0): 1, (1, 1, 1, 1): 0b01}
    for d in (1, 2):
        for i in range(2):
            mult[(0, 0, d, i)] = mult[(d, i, 0, 0)] = 1 << i
    alg = DgAlgebra((1, 2, 2), (BitMatrix.zeros(2, 1), BitMatrix([0b01, 0b01], 2)), mult)
    b = CohomologyClass(alg, alg.element(1, 0b10))
    assert massey_product_set(alg, [b, b]) == {0b10}


def non_formal_algebra():
    """Degree 1: a, b, c, x, y with dx = ab and dy = bc; degree 2: ab, bc,
    w, u with a * b = ab, b * c = bc, x * c = w and a * a = u; truncated at 2."""
    mult = {(0, 0, 0, 0): 1, (1, 0, 1, 1): 0b0001, (1, 1, 1, 2): 0b0010,
            (1, 3, 1, 2): 0b0100, (1, 0, 1, 0): 0b1000}
    for d, dim in ((1, 5), (2, 4)):
        for i in range(dim):
            mult[(0, 0, d, i)] = mult[(d, i, 0, 0)] = 1 << i
    diffs = (BitMatrix.zeros(5, 1), BitMatrix([0b01000, 0b10000, 0, 0], 5))
    return DgAlgebra((1, 5, 4), diffs, mult)


def test_massey_product_set_of_a_non_formal_algebra(capsys, tmp_path):
    alg = non_formal_algebra()
    a, b, c = (CohomologyClass(alg, alg.element(1, 1 << i)) for i in range(3))
    # a(1,3) = x and a(2,4) = y up to cocycles: the corner is x * c = w,
    # shifted by a * a = u through the freedom of a(2,4)
    assert massey_product_set(alg, [a, b, c]) == {0b0100, 0b1100}
    assert outer_shift(alg, [a, b, c])
    assert reference_product_set(alg, [a, b, c]) == {0b0100, 0b1100}

    path = tmp_path / "dg.json"
    path.write_text(json.dumps(dg_algebra_to_dict(alg)))
    code = main(["massey", "--dg-file", str(path), "--classes",
                 "1:10000,1:01000,1:00100", "--enumerate"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["classSet"] == ["0010", "0011"]
    assert report["containsZero"] is False
