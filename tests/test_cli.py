"""End-to-end tests for the command line interface."""

import argparse
import csv
import io
import json
import os
import resource
import subprocess
import sys

import pytest

import koszulhh
from koszulhh import cli, coboundary, hochschild, koszul
from koszulhh.algebra import BooleanRing, ConnectedSumAlgebra
from koszulhh.cli import main
from koszulhh.hochschild import Cochain, HochschildComplex, _BarComplex
from koszulhh.koszul import admissible_tuples, count_admissible
from koszulhh.gf2 import to01
from koszulhh.massey import DgAlgebra, dg_algebra_from_dict, dg_algebra_to_dict
from koszulhh.massey import from_connected_sum, product_count
from koszulhh.massey import extend_with_acyclic_pairs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


def test_hh_grid_json(capsys):
    code, rep = run_json(
        capsys, "hh-grid", "--atoms", "3", "--k-max", "3", "--s-min", "-2", "--s-max", "0"
    )
    assert code == 0
    manifest = rep["manifest"]
    assert manifest["command"] == "hh-grid"
    assert manifest["versions"]["koszulhh"] == "0.1.0"
    assert isinstance(manifest["wallTimeMs"], int)
    assert manifest["parameters"]["atoms"] == 3
    assert rep["algebra"] == {"vDim": 0, "atoms": 3}
    assert len(rep["results"]) == 12
    cell = next(r for r in rep["results"] if r["k"] == 2 and r["s"] == -1)
    assert cell == {"k": 2, "s": -1, "cochains": 18, "cocycles": 6, "coboundaries": 3, "hh": 3}


def test_hh_grid_csv(capsys):
    code, out, err = run(
        capsys, "hh-grid", "--atoms", "3", "--k-max", "3", "--s-min", "-2", "--s-max", "0",
        "--format", "csv",
    )
    assert code == 0 and err == ""
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["k", "s", "cochains", "cocycles", "coboundaries", "hh"]
    assert len(rows) == 13
    assert ["2", "-1", "18", "6", "3", "3"] in rows


def test_hh_grid_subring_blocks(capsys):
    code, rep = run_json(
        capsys, "hh-grid", "--atoms", "3", "--blocks", "x1+x2,x3",
        "--k-max", "2", "--s-min", "-1", "--s-max", "0",
    )
    assert code == 0
    assert rep["algebra"]["subringBlocks"] == ["x1+x2", "x3"]
    grid = {(r["k"], r["s"]): r["hh"] for r in rep["results"]}
    assert grid[(2, -1)] == 1 and grid[(1, 0)] == 3


def test_hh_grid_usage_errors(capsys):
    code, out, err = run(capsys, "hh-grid", "--atoms", "-1")
    assert code == 2 and "nonnegative" in err
    code, out, err = run(capsys, "hh-grid", "--atoms", "3", "--s-min", "1", "--s-max", "0")
    assert code == 2 and "empty bidegree range" in err
    code, out, err = run(capsys, "hh-grid", "--blocks", "x1,x2")
    assert code == 2 and "--blocks needs a positive atom count" in err


def test_hh_grid_cap(capsys):
    code, out, err = run(capsys, "hh-grid", "--atoms", "3", "--k-max", "6", "--cap", "10")
    assert code == 3
    assert err.startswith("cap exceeded:")


def test_memory_error_exits_3_without_traceback(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_hh_grid", exhausted)
    code, out, err = run(capsys, "hh-grid", "--atoms", "3")
    assert code == 3 and out == ""
    assert err.startswith("out of memory:") and err.count("\n") == 1


@pytest.mark.parametrize("target", ["missing/r.json", ""])
def test_unwritable_out_exits_2_without_traceback(capsys, tmp_path, target):
    # a file in a directory that does not exist, and the directory itself
    out = tmp_path / target
    code, printed, err = run(capsys, "hh-grid", "--atoms", "1", "--k-max", "1", "--out", str(out))
    assert code == 2 and printed == ""
    assert err.startswith("error: cannot write the report:") and err.count("\n") == 1


@pytest.mark.parametrize("extra", [("--format", "csv"), ("--out", "missing/r.json"), ("--out", "")])
def test_output_errors_exit_2_before_computing(capsys, monkeypatch, tmp_path, extra):
    # an --out names a file in a missing directory, or the directory itself
    def never(args):
        pytest.fail("the computation ran before the output was checked")

    monkeypatch.setattr(cli, "cmd_massey", never)
    if extra[0] == "--out":
        extra = ("--out", str(tmp_path / extra[1]))
    code, out, err = run(capsys, "massey", "--atoms", "3", "--strong-check", "--samples", "3000", *extra)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_out_directory_removed_during_the_run_exits_2(capsys, monkeypatch, tmp_path):
    folder = tmp_path / "gone"
    folder.mkdir()
    compute = cli.cmd_hh_grid

    def racing(args):
        folder.rmdir()
        return compute(args)

    monkeypatch.setattr(cli, "cmd_hh_grid", racing)
    target = str(folder / "r.json")
    code, printed, err = run(capsys, "hh-grid", "--atoms", "1", "--k-max", "1", "--out", target)
    assert code == 2 and printed == ""
    assert err.startswith("error: cannot write the report:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("solve-coboundary", "--atoms", "3", "--k", "3", "--s", "-1", "--random", "--seed", "5"),
        *(
            ("extend-cocycle", "--v-dim", "1", "--atoms", "3", "--blocks", "x1+x2,x3",
             "--adjoin", "x1", "--k", "3", "--mode", mode, "--random", "--seed", "3")
            for mode in ("split", "branch")
        ),
    ],
)
def test_failed_library_check_exits_1_without_traceback(capsys, monkeypatch, argv):
    # the primitive comes out zero, and each restriction has its first value changed
    restrict = coboundary.restrict_cochain

    def wrong_restriction(hc2, hc, g):
        r = restrict(hc2, hc, g)
        return Cochain(r.k, r.s, (r.values[0] ^ 1,) + r.values[1:])

    monkeypatch.setattr(coboundary, "orbit_decomposition", lambda hc, k: [])
    monkeypatch.setattr(coboundary, "restrict_cochain", wrong_restriction)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("verification failed:") and err.count("\n") == 1


@pytest.mark.parametrize("cap", ["0", "-5", "ten"])
def test_cap_option_must_be_a_positive_integer(capsys, cap):
    for argv in (
        ("hh-grid", "--atoms", "3"),
        ("bar-oracle", "--atoms", "3", "--k", "2", "--s", "-1"),
        ("massey", "--atoms", "3", "--top", "4", "--classes", "1:100,1:010,1:001", "--enumerate"),
    ):
        code, out, err = run(capsys, *argv, "--cap", cap)
        assert code == 2 and out == "" and "--cap" in err


# (argv, the smallest --cap that runs it): a Koszul grid through degree k
# reads the length-(k + 1) sequences
CAP_NEEDS = [
    (("hh-grid", "--atoms", "3", "--k-max", "3", "--s-min", "-1", "--s-max", "0"),
     count_admissible(0, 3, 4)),
    (("kadeishvili", "--atoms", "3", "--k-max", "3"), count_admissible(0, 3, 4)),
    (("koszul-verify", "--v-dim", "1", "--atoms", "2", "--max-internal-degree", "4"),
     count_admissible(1, 2, 4)),
    (("solve-coboundary", "--atoms", "3", "--k", "3", "--s", "-1", "--random", "--seed", "5"),
     count_admissible(0, 3, 4)),
    # two interior slots, a(1,3) and a(2,4), each with 3 degree-1 cocycles
    (("massey", "--atoms", "3", "--top", "4", "--classes", "1:100,1:010,1:001", "--enumerate"),
     2**6),
    # the two blocks of the coarse complex need 2 sequences, the refined complex 24
    *(
        (("extend-cocycle", "--atoms", "3", "--blocks", "x1+x2,x3", "--adjoin", "x1",
          "--k", "3", "--random", "--mode", mode), count_admissible(0, 3, 4))
        for mode in ("split", "branch")
    ),
    (("bar-oracle", "--atoms", "3", "--k", "2", "--s", "-1", "--max-internal-degree", "5"),
     _BarComplex(HochschildComplex(ConnectedSumAlgebra(0, BooleanRing(3))), -1).workload(2, 5)),
]


@pytest.mark.parametrize(
    "argv, need",
    CAP_NEEDS,
    ids=[a[0] + (f"-{a[-1]}" if a[0] == "extend-cocycle" else "") for a, _ in CAP_NEEDS],
)
def test_cap_just_below_the_need(capsys, argv, need):
    code, out, err = run(capsys, *argv, "--cap", str(need - 1))
    if argv[0] == "bar-oracle":
        # the bar oracle truncates instead of failing
        assert code == 0 and json.loads(out)["skippedFrom"] == 5
    else:
        assert code == 3 and out == "" and err.startswith("cap exceeded:")
    code, out, err = run(capsys, *argv, "--cap", str(need))
    assert code == 0 and err == "" and json.loads(out).get("skippedFrom") is None


def test_kadeishvili(capsys):
    code, rep = run_json(capsys, "kadeishvili", "--v-dim", "1", "--atoms", "2")
    assert code == 0 and rep["passed"]
    assert rep["manifest"]["summary"] == "all obstruction bidegrees vanish through k = 6"
    assert [r["k"] for r in rep["results"]] == [3, 4, 5, 6]
    assert all(r["hh"] == 0 and r["s"] == 2 - r["k"] for r in rep["results"])

    code, out, err = run(capsys, "kadeishvili", "--atoms", "2", "--k-max", "2")
    assert code == 2 and "starts at k = 3" in err


def test_kadeishvili_exits_1_on_a_nonzero_obstruction(capsys, monkeypatch):
    # one rank too low at (4, -2) leaves a class in that obstruction bidegree;
    # the bidegree it also feeds, (5, -2), is not an obstruction bidegree
    real = HochschildComplex.rank

    def rank(self, k, s):
        return real(self, k, s) - ((k, s) == (4, -2))

    monkeypatch.setattr(HochschildComplex, "rank", rank)
    code, rep = run_json(capsys, "kadeishvili", "--v-dim", "1", "--atoms", "2")
    assert code == 1 and rep["passed"] is False
    assert rep["manifest"]["summary"] == "obstruction space at (k, s) = (4, -2) has dimension 1"
    assert [(r["k"], r["hh"]) for r in rep["results"]] == [(3, 0), (4, 1), (5, 0), (6, 0)]


def test_koszul_verify(capsys):
    code, rep = run_json(
        capsys, "koszul-verify", "--v-dim", "1", "--atoms", "2", "--max-internal-degree", "5"
    )
    assert code == 0 and rep["passed"]
    assert rep["results"] == []
    assert rep["componentsChecked"] > 0

    code, out, err = run(capsys, "koszul-verify", "--atoms", "2", "--max-internal-degree", "-1")
    assert code == 2


def test_koszul_verify_exits_1_when_the_resolution_fails(capsys, monkeypatch):
    # u[1:] and u[:-1] swapped: the differential no longer squares to zero
    links = [koszul.sequence_links(1, 1, k) for k in range(3)]
    swapped = [t._replace(suffix=t.prefix, prefix=t.suffix) for t in links]
    monkeypatch.setattr(koszul, "sequence_links", lambda m, n, k: swapped[k])
    code, rep = run_json(
        capsys, "koszul-verify", "--v-dim", "1", "--atoms", "1", "--max-internal-degree", "2"
    )
    assert code == 1 and not rep["passed"]
    assert rep["results"] == [{"d": 2, "position": -2, "value": 3}] * 2
    summary = "d∘d leaves 3 uncancelled terms from position 2 at internal degree 2"
    assert rep["manifest"]["summary"] == summary


@pytest.mark.parametrize("extra", [("7", "--cap", "10"), ("14",), ("20",)])
def test_koszul_verify_cap_exits_3_before_enumerating(capsys, monkeypatch, extra):
    # 5,116 sequences at D=7, 21.9M at D=14 (default cap 2M); the top degree
    # is checked before any level is built
    def never(*args):
        raise AssertionError("enumerated past the cap")

    monkeypatch.setattr(koszul, "sequence_links", never)
    code, out, err = run(
        capsys, "koszul-verify", "--v-dim", "1", "--atoms", "3", "--max-internal-degree", *extra
    )
    assert code == 3 and out == ""
    assert err == "cap exceeded: admissible sequence enumeration\n"


def test_bar_oracle(capsys):
    code, rep = run_json(
        capsys, "bar-oracle", "--atoms", "3", "--k", "2", "--s", "-1",
        "--max-internal-degree", "6",
    )
    assert code == 0
    assert rep["koszulHh"] == 3
    assert rep["skippedFrom"] is None
    assert [f["increment"] for f in rep["factors"]] == [0, 0, 3, 0, 0, 0, 0]
    assert [f["cumulative"] for f in rep["factors"]] == [0, 0, 3, 3, 3, 3, 3]
    # the 3 classes sit in 3 of the 78 weight blocks of C^2; permuting the
    # atoms leaves 15 orbits of blocks there, one block of each eliminated
    shapes = rep["manifest"]["barBlocks"]
    assert [(b["q"], b["blocks"], b["nonzeroBlocks"], b["eliminatedBlocks"]) for b in shapes] == [
        (1, 33, 3, 6),
        (2, 78, 3, 15),
    ]
    assert all(0 < b["widestBlock"] < b["columns"] for b in shapes)


def test_bar_oracle_exits_1_where_its_exact_total_differs(capsys, monkeypatch):
    # one rank too low at (2, -1) raises the Koszul side by one; without
    # atoms a truncation through the last degree with cochains (2 here) is
    # exact, so only there does the mismatch fail the command
    real = HochschildComplex.rank

    def rank(self, k, s):
        return real(self, k, s) - ((k, s) == (2, -1))

    monkeypatch.setattr(HochschildComplex, "rank", rank)
    cell = ("bar-oracle", "--k", "2", "--s", "-1", "--max-internal-degree")
    code, rep = run_json(capsys, *cell, "4", "--v-dim", "2")
    assert code == 1 and rep["koszulHh"] == 7 and rep["factors"][-1]["cumulative"] == 6
    assert rep["manifest"]["summary"] == "bar total 6 at full depth differs from the graded model's 7"
    code, rep = run_json(capsys, *cell, "1", "--v-dim", "2")
    assert code == 0 and rep["koszulHh"] == 7 and rep["factors"][-1]["cumulative"] == 0
    code, rep = run_json(capsys, *cell, "4", "--v-dim", "1", "--atoms", "2")
    assert code == 0 and rep["koszulHh"] == 9 and rep["factors"][-1]["cumulative"] == 8


def run_child(argv, timeout, address_space_mb=None):
    """The command line in a fresh interpreter, killed after timeout seconds;
    with address_space_mb, under that RLIMIT_AS."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(koszulhh.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)

    def limit():
        size = address_space_mb << 20
        resource.setrlimit(resource.RLIMIT_AS, (size, size))

    return subprocess.run(
        [sys.executable, "-m", "koszulhh.cli", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
        preexec_fn=limit if address_space_mb else None,
    )


def test_hh_grid_checks_its_caps_before_any_atom_mask():
    # 100,000 atoms would make 100,000 masks of up to 100,000 bits, over
    # 600 MiB; the sequence cap of the window fires before any of them exists
    proc = run_child(["hh-grid", "--atoms", "100000", "--k-max", "1"], timeout=10, address_space_mb=400)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == "cap exceeded: admissible sequence enumeration\n"


def test_bar_oracle_past_the_last_degree_with_cochains_does_no_work():
    # without atoms a bar word of q factors has degree q, so past degree
    # k + 1 every piece is zero and costs nothing, however deep the request
    argv = ["bar-oracle", "--v-dim", "1", "--k", "1", "--s", "0", "--max-internal-degree", "100000"]
    proc = run_child(argv, timeout=10)
    assert proc.returncode == 0 and proc.stderr == ""
    rep = json.loads(proc.stdout)
    assert rep["skippedFrom"] is None and len(rep["factors"]) == 100_001
    assert all(f["increment"] == 0 for f in rep["factors"][3:])
    assert rep["factors"][-1]["cumulative"] == rep["koszulHh"]


def test_deep_cohomological_degrees_run_without_recursion():
    # sequences and bar words are reached level by level in a loop; with one
    # atom every sequence longer than 1 repeats it, so the cochains are zero
    bar = run_child(
        ["bar-oracle", "--atoms", "1", "--k", "1100", "--s", "-1000", "--max-internal-degree", "2"],
        timeout=20,
    )
    assert bar.returncode == 0 and "Traceback" not in bar.stderr
    rep = json.loads(bar.stdout)
    assert rep["koszulHh"] == 0 and [f["increment"] for f in rep["factors"]] == [0, 0, 0]
    solve = run_child(
        ["solve-coboundary", "--atoms", "1", "--k", "1100", "--s", "-1000", "--random"], timeout=20
    )
    assert solve.returncode == 0 and "Traceback" not in solve.stderr
    rep = json.loads(solve.stdout)
    assert rep["cochain"] == rep["primitive"] == "" and rep["verified"] is True


def test_deep_v_only_bar_truncations_run_in_loops():
    # word counts are a closed form and word runs are built factor by
    # factor, so the full depth of a v-only cell costs little at k = 1100
    argv = ["bar-oracle", "--v-dim", "1", "--k", "1100", "--s", "-1100", "--max-internal-degree", "1101"]
    proc = run_child(argv, timeout=10)
    assert proc.returncode == 0 and proc.stderr == ""
    rep = json.loads(proc.stdout)
    assert rep["skippedFrom"] is None and rep["factors"][-1]["cumulative"] == rep["koszulHh"] == 1


def test_kadeishvili_ranks_no_piece_between_zero_module_pieces():
    # without atoms every obstruction bidegree has module degree 2, a zero
    # piece, so each rank is 0 before any differential over its 2^k
    # sequences is built
    proc = run_child(["kadeishvili", "--v-dim", "2", "--k-max", "70"], timeout=10, address_space_mb=400)
    assert proc.returncode == 0 and proc.stderr == ""
    rep = json.loads(proc.stdout)
    assert rep["passed"] is True and len(rep["results"]) == 68
    assert all(row["cochains"] == row["hh"] == 0 for row in rep["results"])


def test_bar_oracle_builds_no_atom_table_before_its_cap():
    # 100,000 atoms: the degree-1 matrix is over the bar cap, and the
    # coefficient blocks are read off the atom count, never as masks
    argv = ["bar-oracle", "--atoms", "100000", "--k", "1", "--s", "0", "--max-internal-degree", "1"]
    proc = run_child(argv, timeout=10, address_space_mb=400)
    assert proc.returncode == 0 and proc.stderr == ""
    rep = json.loads(proc.stdout)
    assert rep["skippedFrom"] == 1 and rep["koszulHh"] is None


def test_a_huge_koszul_piece_with_a_zero_target_is_capped(capsys):
    # count(70) * 2 columns of the (70, -69) differential, whose target
    # piece is zero: both commands check the sequence cap first
    code, rep = run_json(
        capsys, "bar-oracle", "--v-dim", "2", "--k", "70", "--s", "-69", "--max-internal-degree", "0"
    )
    assert code == 0 and rep["koszulHh"] is None
    assert "graded model skipped: admissible sequence enumeration" in rep["manifest"]["summary"]
    code, out, err = run(capsys, "solve-coboundary", "--v-dim", "2", "--k", "70", "--s", "-69", "--random")
    assert code == 3 and out == ""
    assert err == "cap exceeded: admissible sequence enumeration\n"


def test_massey_enumerates_many_inner_slots_without_recursion():
    # 60 classes make 1,767 inner slots, past Python's recursion limit were
    # each a frame; one loop drives the walks of all of them
    classes = ",".join(["2:000"] * 60)
    argv = ["massey", "--v-dim", "1", "--atoms", "3", "--top", "2", "--classes", classes, "--enumerate"]
    proc = run_child(argv, timeout=10)
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["classSet"] == [""]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--strong-check", "--max-n", "100000", "--samples", "1"),
         "--max-n 100000: a defining system of 5,000,049,999 entries"),
        (("--top", "100000", "--classes", "1:100,1:010"),
         "--top 100000: a product table of 45,000,150,001 entries"),
    ],
)
def test_massey_sizes_are_checked_before_any_work(argv, message):
    proc = run_child(["massey", "--atoms", "3", *argv], timeout=20)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == f"cap exceeded: {message}\n"


def test_dg_file_validation_visits_only_the_truncation_window(tmp_path, monkeypatch):
    # dims [1, 320] with top 1: only products with the unit lie in the
    # window, so validation costs a few products per basis vector
    n = 320
    vector = ["".join("1" if j == i else "0" for j in range(n)) for i in range(n)]
    mult = {"0,0,0,0": "1"}
    for i in range(n):
        mult[f"0,0,1,{i}"] = mult[f"1,{i},0,0"] = vector[i]
    data = {"dims": [1, n], "differentials": [[]], "multiplication": mult}
    calls = []
    product = DgAlgebra.product
    monkeypatch.setattr(DgAlgebra, "product", lambda *a: calls.append(1) or product(*a))
    dg_algebra_from_dict(data)
    assert len(calls) <= 16 * (n + 1)

    small = tmp_path / "small.json"
    small.write_text(json.dumps(data))
    proc = run_child(
        ["massey", "--dg-file", str(small), "--classes", f"1:{vector[0]},1:{vector[1]}"], timeout=5
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["isZeroClass"] is True

    # the basis triples of total degree at most 3 are over DEFAULT_CAP, and
    # are counted before any product (the unit products are missing here)
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"dims": [1, 130, 130, 130], "differentials": [[], [], []]}))
    proc = run_child(["massey", "--dg-file", str(big), "--classes", "1:" + "0" * 130], timeout=5)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == "cap exceeded: dg algebra validation: 2,350,271 basis triples\n"


def test_massey_product_count_is_the_number_of_products_evaluated():
    for m, n in ((0, 0), (2, 0), (0, 1), (1, 3)):
        alg = ConnectedSumAlgebra(m, BooleanRing(n) if n else None)
        for top in range(8):
            dims = [alg.graded_dim(d) for d in range(top + 1)]
            pairs = sum(dims[a] * dims[b] for a in range(top + 1) for b in range(top + 1 - a))
            assert product_count(alg, top) == pairs, (m, n, top)


@pytest.mark.parametrize(
    "argv",
    [
        ("hh-grid", "--v-dim", "2", "--atoms", "4", "--k-max", "8", "--s-min", "-3", "--s-max", "0"),
        ("kadeishvili", "--v-dim", "2", "--atoms", "4", "--k-max", "8"),
    ],
)
def test_every_cap_of_the_window_is_checked_before_any_work(capsys, monkeypatch, argv):
    # k = 8 needs the 4,134,916 sequences of length 9 (default cap 2M); the
    # smaller k come first in the window, but none of them is computed
    def never(*args):
        raise AssertionError("enumerated before the caps were checked")

    monkeypatch.setattr(hochschild, "sequence_links", never)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err == "cap exceeded: admissible sequence enumeration\n"


def test_bar_oracle_csv(capsys):
    code, out, err = run(
        capsys, "bar-oracle", "--atoms", "3", "--k", "2", "--s", "-1",
        "--max-internal-degree", "6", "--format", "csv",
    )
    assert code == 0 and err == ""
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["d", "increment", "cumulative"]
    assert len(rows) == 8
    assert rows[3] == ["2", "3", "3"]


def test_bar_oracle_cap_truncates(capsys):
    code, rep = run_json(
        capsys, "bar-oracle", "--atoms", "3", "--k", "2", "--s", "-1",
        "--max-internal-degree", "8", "--cap", "100",
    )
    assert code == 0
    assert rep["skippedFrom"] == len(rep["factors"])
    assert rep["skippedFrom"] <= 8
    assert rep["koszulHh"] == 3


def test_bar_oracle_reports_no_koszul_side_over_its_cap(capsys):
    # --cap is the bar cap; the Koszul side, more than 2M sequences, keeps
    # caps.DEFAULT_CAP and is reported as null instead of exiting 3
    code, rep = run_json(
        capsys, "bar-oracle", "--v-dim", "2", "--atoms", "4", "--k", "10", "--s", "-9",
        "--max-internal-degree", "0", "--cap", "1000000000",
    )
    assert code == 0
    assert rep["koszulHh"] is None and rep["skippedFrom"] is None
    assert rep["factors"] == [{"d": 0, "increment": 0, "cumulative": 0}]
    assert "graded model skipped: admissible sequence enumeration" in rep["manifest"]["summary"]


def test_bar_oracle_negative_degree_exits_2_in_one_line(capsys):
    code, out, err = run(capsys, "bar-oracle", "--atoms", "2", "--k", "-1", "--s", "0")
    assert code == 2 and out == ""
    assert err == "error: negative cohomological degree\n"


def test_solve_coboundary_random(capsys):
    code, rep = run_json(
        capsys, "solve-coboundary", "--atoms", "3", "--k", "3", "--s", "-1",
        "--random", "--seed", "5",
    )
    assert code == 0 and rep["verified"]
    assert rep["primitiveBidegree"] == {"k": 2, "s": -1}
    assert len(rep["cochain"]) == 36 and set(rep["cochain"]) <= {"0", "1"}
    assert len(rep["primitive"]) == 18

    # same seed, same primitive
    code2, rep2 = run_json(
        capsys, "solve-coboundary", "--atoms", "3", "--k", "3", "--s", "-1",
        "--random", "--seed", "5",
    )
    assert rep2["primitive"] == rep["primitive"]


def test_solve_coboundary_explicit_cochain(capsys):
    hc = HochschildComplex(ConnectedSumAlgebra(0, BooleanRing(3)))
    index = {t: i for i, t in enumerate(admissible_tuples(0, 3, 3))}
    vals = [0] * len(index)
    vals[index[(0, 1, 0)]] = 0b001
    f = Cochain(3, -1, tuple(vals))
    text = to01(hc.cochain_to_bits(f), hc.cochain_dim(3, -1))
    code, rep = run_json(
        capsys, "solve-coboundary", "--atoms", "3", "--k", "3", "--s", "-1",
        "--cochain", text,
    )
    assert code == 0 and rep["verified"]
    index = {t: i for i, t in enumerate(admissible_tuples(0, 3, 2))}
    g_vals = [0] * len(index)
    g_vals[index[(1, 0)]] = 0b001
    g = Cochain(2, -1, tuple(g_vals))
    assert rep["primitive"] == to01(hc.cochain_to_bits(g), hc.cochain_dim(2, -1))


def test_solve_coboundary_usage_errors(capsys):
    code, out, err = run(
        capsys, "solve-coboundary", "--atoms", "3", "--k", "2", "--s", "-1",
        "--cochain", "0" * 27,
    )
    assert code == 2 and "cochain string must have 18 bits, got 27" in err
    code, out, err = run(capsys, "solve-coboundary", "--atoms", "3", "--k", "2", "--s", "0")
    assert code == 2 and "provide --cochain BITS or --random" in err
    code, out, err = run(
        capsys, "solve-coboundary", "--atoms", "3", "--k", "1", "--s", "1", "--random"
    )
    assert code == 2 and "two tensor factors" in err


def test_extend_cocycle(capsys):
    code, rep = run_json(
        capsys, "extend-cocycle", "--atoms", "3", "--adjoin", "x1+x2",
        "--k", "2", "--random", "--seed", "3",
    )
    assert code == 0 and rep["verified"]
    assert rep["adjoined"] == "x1+x2"
    assert rep["refinedBlocks"] == ["x1+x2", "x3"]

    code, rep = run_json(
        capsys, "extend-cocycle", "--atoms", "3", "--adjoin", "x2",
        "--k", "2", "--mode", "branch", "--random", "--seed", "3",
    )
    assert code == 0 and rep["verified"]


def test_extend_cocycle_usage_errors(capsys):
    code, out, err = run(
        capsys, "extend-cocycle", "--atoms", "3", "--adjoin", "x9", "--k", "2", "--random"
    )
    assert code == 2 and "atom x9 out of range 1..3" in err
    code, out, err = run(capsys, "extend-cocycle", "--adjoin", "x1", "--k", "2", "--random")
    assert code == 2 and "extension needs a positive atom count" in err


def test_massey_trivial_product(capsys):
    code, rep = run_json(
        capsys, "massey", "--atoms", "3", "--top", "4",
        "--classes", "1:100,1:010,1:001",
    )
    assert code == 0
    assert rep["isZeroClass"] and rep["productDegree"] == 2
    assert rep["product"] == "000"


def test_massey_enumerate(capsys):
    code, rep = run_json(
        capsys, "massey", "--atoms", "3", "--top", "4",
        "--classes", "1:100,1:010,1:001", "--enumerate",
    )
    assert code == 0
    assert rep["algebra"] == {"vDim": 0, "atoms": 3}
    assert rep["containsZero"] and rep["productDegree"] == 2
    assert rep["classSet"] == ["000", "100", "001", "101"]


def test_massey_strong_check(capsys):
    code, rep = run_json(
        capsys, "massey", "--v-dim", "2", "--atoms", "3", "--top", "8",
        "--strong-check", "--samples", "20", "--max-n", "4", "--seed", "1",
    )
    assert code == 0
    assert rep["allZero"] and rep["checked"] == 20 and rep["failures"] == []


def test_massey_dg_file_and_cap(capsys, tmp_path):
    base = from_connected_sum(ConnectedSumAlgebra(1, BooleanRing(2)), 5)
    ext, _ = extend_with_acyclic_pairs(base, [2, 3])
    path = tmp_path / "dg.json"
    path.write_text(json.dumps(dg_algebra_to_dict(ext)))
    # two interior slots of degree 1, each free over three cocycles
    classes = "1:010,1:001,1:010"
    code, rep = run_json(
        capsys, "massey", "--dg-file", str(path), "--classes", classes, "--enumerate",
    )
    assert code == 0 and rep["algebra"] == {"dgDims": [1, 3, 3, 4, 3, 2]}
    code, out, err = run(
        capsys, "massey", "--dg-file", str(path),
        "--classes", classes, "--enumerate", "--cap", "2",
    )
    assert code == 3 and out == ""
    assert err == "cap exceeded: enumerating 2**6 defining systems exceeds the cap\n"
    # the representatives' boundaries are not enumerated: no interior slot,
    # one system; the product lands above the truncation, in a 0-bit degree
    bits = to01(ext.cocycle_basis(3)[0], ext.dim(3))
    code, rep = run_json(
        capsys, "massey", "--dg-file", str(path),
        "--classes", f"3:{bits},3:{bits}", "--enumerate", "--cap", "1",
    )
    assert code == 0 and rep["classSet"] == [""] and rep["containsZero"]


def test_massey_usage_errors(capsys, tmp_path):
    code, out, err = run(capsys, "massey", "--atoms", "3", "--format", "csv",
                         "--classes", "1:100,1:010")
    assert code == 2 and "massey has no CSV form" in err
    code, out, err = run(capsys, "massey", "--atoms", "3", "--classes", "1:10")
    assert code == 2 and "class in degree 1 needs 3 bits, got 2" in err
    code, out, err = run(capsys, "massey", "--atoms", "3", "--classes=1:100,-1:")
    assert code == 2 and out == ""
    assert err == "error: class degree must be nonnegative, got -1\n"
    # a class above the truncation has no product to speak of
    code, out, err = run(capsys, "massey", "--atoms", "3", "--top", "4",
                         "--classes", "1:100,5:")
    assert code == 2 and out == ""
    assert err == "error: class degree must be at most the truncation 4, got 5\n"
    code, out, err = run(capsys, "massey", "--atoms", "3", "--classes", "1:100,9:",
                         "--enumerate")
    assert code == 2 and out == ""
    assert err == "error: class degree must be at most the truncation 8, got 9\n"
    code, out, err = run(capsys, "massey", "--atoms", "3")
    assert code == 2 and "provide --classes or --strong-check" in err
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dims": [1, 2]}))
    code, out, err = run(capsys, "massey", "--dg-file", str(bad),
                         "--classes", "1:10")
    assert code == 2 and "bad dg algebra file" in err
    short = tmp_path / "short.json"
    base = from_connected_sum(ConnectedSumAlgebra(0, BooleanRing(2)), 2)
    short.write_text(json.dumps(dg_algebra_to_dict(base)))
    code, out, err = run(capsys, "massey", "--dg-file", str(short),
                         "--classes", "1:10,3:")
    assert code == 2 and out == ""
    assert err == "error: class degree must be at most the truncation 2, got 3\n"
    code, out, err = run(capsys, "massey", "--dg-file", str(short),
                         "--classes", "1:10,2:01")
    assert code == 0
    # the file the malformed cases below each break in one place
    unit = tmp_path / "unit.json"
    unit.write_text('{"dims": [1, 1], ' + UNIT_PRODUCTS + "}")
    code, out, err = run(capsys, "massey", "--dg-file", str(unit), "--classes", "1:1,1:1")
    assert code == 0 and json.loads(out)["algebra"]["dgDims"] == [1, 1]


# the products with the unit of a dg algebra with dims [1, 1]: with
# those dims the file is valid
UNIT_PRODUCTS = '"differentials": [[]], "multiplication": {"0,0,0,0": "1", "0,0,1,0": "1", "1,0,0,0": "1"}'


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "error: unusable dg algebra file: "),
        ("[1, 2]", "error: bad dg algebra file: expected a JSON object"),
        ('{"dims": [1, 1], "differentials": [["0"]], "multiplication": []}',
         "error: bad dg algebra file: multiplication must be a JSON object"),
        # bit strings whose extra zeros would be dropped, or missing zeros assumed
        ('{"dims": [1, 2, 1], "differentials": [[], []], '
         '"multiplication": {"1,0,1,1": "10000"}}',
         "error: bad dg algebra file: product 1,0,1,1 needs 1 bits, got 5"),
        ('{"dims": [1, 2, 1], "differentials": [[], []], '
         '"multiplication": {"1,0,1,1": "1"}, "unit": "1000"}',
         "error: bad dg algebra file: unit needs 1 bits, got 4"),
        ('{"dims": [2, 2, 1], "differentials": [[], []], "unit": "1"}',
         "error: bad dg algebra file: unit needs 2 bits, got 1"),
        # dims, keys and bit strings that int() or from01 would coerce
        ('{"dims": [1, 1.9], ' + UNIT_PRODUCTS + "}",
         "error: bad dg algebra file: dims must be a list of integers, got [1, 1.9]"),
        ('{"dims": "11", ' + UNIT_PRODUCTS + "}",
         "error: bad dg algebra file: dims must be a list of integers, got '11'"),
        ('{"dims": [1, true], ' + UNIT_PRODUCTS + "}",
         "error: bad dg algebra file: dims must be a list of integers, got [1, True]"),
        ('{"dims": [1, 1], ' + UNIT_PRODUCTS.replace('"0,0,1,0"', '" 0,0,1,0"') + "}",
         "error: bad dg algebra file: product key ' 0,0,1,0' is not four comma-separated"),
        ('{"dims": [1, 1], ' + UNIT_PRODUCTS.replace('"0,0,1,0"', '"0_0,0,1,0"') + "}",
         "error: bad dg algebra file: product key '0_0,0,1,0' is not four comma-separated"),
        ('{"dims": [1, 1], ' + UNIT_PRODUCTS.replace('"0,0,1,0"', '"0,0,1,٠"') + "}",
         "error: bad dg algebra file: product key '0,0,1,٠' is not four comma-separated"),
        ('{"dims": [1, 1], ' + UNIT_PRODUCTS.replace("}", ', "0,0,1,00": "1"}') + "}",
         "error: bad dg algebra file: product key 0,0,1,00 repeats an earlier key"),
        ('{"dims": [1, 1], "unit": 1, ' + UNIT_PRODUCTS + "}",
         "error: bad dg algebra file: unit must be a 0/1 string, got 1"),
        ('{"dims": [1, 1], ' + UNIT_PRODUCTS.replace('"1,0,0,0": "1"', '"1,0,0,0": 1') + "}",
         "error: bad dg algebra file: product 1,0,0,0 must be a 0/1 string, got 1"),
    ],
)
def test_massey_dg_file_errors_exit_2_in_one_line(capsys, tmp_path, content, message):
    path = tmp_path / "dg.json"
    if content is not None:
        path.write_text(content)
    code, out, err = run(capsys, "massey", "--dg-file", str(path), "--classes", "1:1")
    assert code == 2 and out == ""
    assert err.startswith(message) and err.count("\n") == 1


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--samples", "-5", "must be positive, got -5"),
        ("--samples", "0", "must be positive, got 0"),
        ("--max-n", "1", "a Massey product needs at least 2 classes, got 1"),
    ],
)
def test_massey_strong_check_rejects_vacuous_sampling(capsys, option, value, message):
    code, out, err = run(capsys, "massey", "--atoms", "3", "--strong-check", option, value)
    assert code == 2 and out == ""
    assert err == f"error: argument {option}: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("hh-grid", "--cap", "0"), "argument --cap: must be positive, got 0"),
        (("massey", "--atoms", "3", "--strong-check", "--samples", "-5"),
         "argument --samples: must be positive, got -5"),
        (("massey", "--atoms", "3", "--strong-check", "--max-n", "1"),
         "argument --max-n: a Massey product needs at least 2 classes, got 1"),
        (("hh-grid", "--atoms", "3", "--depth", "3"), "unrecognized arguments: --depth 3"),
        (("bar-oracle", "--atoms", "3", "--s", "-1"), "the following arguments are required: --k"),
    ],
    ids=["cap", "samples", "max-n", "unknown-option", "missing-k"],
)
def test_argument_errors_exit_2_in_one_line(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


SUBPARSERS = next(
    a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
).choices


@pytest.mark.parametrize(
    "command, option",
    [
        (command, action.option_strings[0])
        for command, parser in SUBPARSERS.items()
        for action in parser._actions
        if action.option_strings and action.nargs != 0
    ],
)
def test_an_option_given_a_bare_double_dash_exits_2_in_one_line(capsys, command, option):
    code, out, err = run(capsys, command, f"{option}=--")
    assert code == 2 and out == ""
    assert err == f"error: argument {option}: expected a value, got '--'\n"


def test_replay_round_trip(capsys, tmp_path):
    report_path = tmp_path / "bar.json"
    code, out, err = run(
        capsys, "bar-oracle", "--atoms", "3", "--k", "2", "--s", "-1",
        "--max-internal-degree", "5", "--out", str(report_path),
    )
    assert code == 0 and out == ""
    stored = json.loads(report_path.read_text())
    assert stored["koszulHh"] == 3

    code, rep = run_json(capsys, "replay", "--manifest", str(report_path))
    assert code == 0
    assert rep["match"] and rep["replayedCommand"] == "bar-oracle"

    # a report saved without the block shape still replays as a match
    del stored["manifest"]["barBlocks"]
    report_path.write_text(json.dumps(stored))
    code, rep = run_json(capsys, "replay", "--manifest", str(report_path))
    assert code == 0 and rep["match"]


def test_replay_detects_tampering(capsys, tmp_path):
    report_path = tmp_path / "grid.json"
    run(capsys, "hh-grid", "--atoms", "2", "--k-max", "2", "--out", str(report_path))
    stored = json.loads(report_path.read_text())
    stored["results"][0]["hh"] += 1
    report_path.write_text(json.dumps(stored))
    code, rep = run_json(capsys, "replay", "--manifest", str(report_path))
    assert code == 1 and not rep["match"]


def test_replay_usage_errors(capsys, tmp_path):
    code, out, err = run(capsys, "replay", "--manifest", str(tmp_path / "missing.json"))
    assert code == 2 and "unusable report file" in err
    loop = tmp_path / "loop.json"
    loop.write_text(json.dumps({"manifest": {"command": "replay", "parameters": {}}}))
    code, out, err = run(capsys, "replay", "--manifest", str(loop))
    assert code == 2 and "cannot replay command 'replay'" in err
    # hand-edited reports: a value of the wrong type, a null where the option
    # has a default, and a parameter the command does not have
    grid = tmp_path / "grid.json"
    run(capsys, "hh-grid", "--atoms", "2", "--k-max", "2", "--out", str(grid))
    wrong_type = json.loads(grid.read_text())
    wrong_type["manifest"]["parameters"]["k_max"] = "2"
    product = tmp_path / "massey.json"
    run(capsys, "massey", "--atoms", "3", "--top", "4", "--classes", "1:100,1:010",
        "--out", str(product))
    null_top = json.loads(product.read_text())
    null_top["manifest"]["parameters"]["top"] = None
    unknown = json.loads(grid.read_text())
    unknown["manifest"]["parameters"]["depth"] = 3
    for content in (
        [1],
        {"manifest": {"command": [], "parameters": {}}},
        {"manifest": {"command": "hh-grid", "parameters": {}}},
        wrong_type,
        null_top,
        unknown,
    ):
        loop.write_text(json.dumps(content))
        code, out, err = run(capsys, "replay", "--manifest", str(loop))
        assert code == 2 and out == ""
        assert err.startswith("error: unusable report file: ") and err.count("\n") == 1


def test_version_and_missing_subcommand(capsys):
    code, out, err = run(capsys, "--version")
    assert code == 0 and "koszulhh 0.1.0" in out
    code, out, err = run(capsys, "--help")
    assert code == 0 and out.startswith("usage: koszulhh") and err == ""
    code, out, err = run(capsys)
    assert code == 2 and out == ""
    assert err == "error: the following arguments are required: command\n"


def test_invalid_bit_characters_exit_2_in_one_line(capsys, tmp_path):
    dg = tmp_path / "dg.json"
    dg.write_text(json.dumps({"dims": [1, 1], "differentials": [["0"]], "unit": "x"}))
    for argv in (
        ("massey", "--atoms", "3", "--classes", "1:1x0,1:010"),
        ("solve-coboundary", "--atoms", "3", "--k", "1", "--s", "-1", "--cochain", "10x"),
        ("massey", "--dg-file", str(dg), "--classes", "1:1"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "invalid bit character 'x'" in err and err.count("\n") == 1
