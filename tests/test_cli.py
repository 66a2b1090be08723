"""End-to-end tests for the command line interface."""

import csv
import io
import json

import pytest

from koszulhh import cli
from koszulhh.algebra import BooleanRing, ConnectedSumAlgebra
from koszulhh.cli import main
from koszulhh.hochschild import Cochain, HochschildComplex
from koszulhh.massey import dg_algebra_to_dict, format_bits, from_connected_sum
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


@pytest.mark.parametrize("cap", ["0", "-5", "ten"])
def test_cap_option_must_be_a_positive_integer(capsys, cap):
    for argv in (
        ("hh-grid", "--atoms", "3"),
        ("bar-oracle", "--atoms", "3", "--k", "2", "--s", "-1"),
        ("massey", "--atoms", "3", "--top", "4", "--classes", "1:100,1:010,1:001", "--enumerate"),
    ):
        code, out, err = run(capsys, *argv, "--cap", cap)
        assert code == 2 and out == "" and "--cap" in err


@pytest.mark.parametrize("value, message", [("-1", "must be positive"), ("0", "must be positive"),
                                            ("lots", "must be an integer")])
def test_bar_cap_environment_is_validated(capsys, monkeypatch, value, message):
    monkeypatch.setenv("KOSZULHH_BAR_CAP", value)
    code, out, err = run(capsys, "bar-oracle", "--atoms", "3", "--k", "2", "--s", "-1")
    assert code == 2 and out == ""
    assert err.startswith(f"error: KOSZULHH_BAR_CAP {message}") and err.count("\n") == 1


def test_kadeishvili(capsys):
    code, rep = run_json(capsys, "kadeishvili", "--v-dim", "1", "--atoms", "2")
    assert code == 0 and rep["passed"]
    assert rep["manifest"]["summary"] == "all obstruction bidegrees vanish through k = 6"
    assert [r["k"] for r in rep["results"]] == [3, 4, 5, 6]
    assert all(r["hh"] == 0 and r["s"] == 2 - r["k"] for r in rep["results"])

    code, out, err = run(capsys, "kadeishvili", "--atoms", "2", "--k-max", "2")
    assert code == 2 and "starts at k = 3" in err


def test_koszul_verify(capsys):
    code, rep = run_json(
        capsys, "koszul-verify", "--v-dim", "1", "--atoms", "2", "--max-internal-degree", "5"
    )
    assert code == 0 and rep["passed"]
    assert rep["results"] == []
    assert rep["componentsChecked"] > 0

    code, out, err = run(capsys, "koszul-verify", "--atoms", "2", "--max-internal-degree", "-1")
    assert code == 2


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
    index = hc.sequence_index(3)
    vals = [0] * len(index)
    vals[index[(0, 1, 0)]] = 0b001
    f = Cochain(3, -1, tuple(vals))
    text = format_bits(hc.cochain_to_bits(f), hc.cochain_dim(3, -1))
    code, rep = run_json(
        capsys, "solve-coboundary", "--atoms", "3", "--k", "3", "--s", "-1",
        "--cochain", text,
    )
    assert code == 0 and rep["verified"]
    g_vals = [0] * len(hc.sequence_index(2))
    g_vals[hc.sequence_index(2)[(1, 0)]] = 0b001
    g = Cochain(2, -1, tuple(g_vals))
    assert rep["primitive"] == format_bits(hc.cochain_to_bits(g), hc.cochain_dim(2, -1))


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
    bits = format_bits(ext.cocycle_basis(3)[0], ext.dim(3))
    code, rep = run_json(
        capsys, "massey", "--dg-file", str(path),
        "--classes", f"3:{bits},3:{bits}", "--enumerate",
    )
    assert code == 0 and rep["algebra"] == {"dgDims": [1, 3, 3, 4, 3, 2]}
    code, out, err = run(
        capsys, "massey", "--dg-file", str(path),
        "--classes", f"3:{bits},3:{bits}", "--enumerate", "--cap", "2",
    )
    assert code == 3 and "cap exceeded: enumerating 2**2 defining systems" in err


def test_massey_usage_errors(capsys, tmp_path):
    code, out, err = run(capsys, "massey", "--atoms", "3", "--format", "csv",
                         "--classes", "1:100,1:010")
    assert code == 2 and "massey has no CSV form" in err
    code, out, err = run(capsys, "massey", "--atoms", "3", "--classes", "1:10")
    assert code == 2 and "class in degree 1 needs 3 bits, got 2" in err
    code, out, err = run(capsys, "massey", "--atoms", "3")
    assert code == 2 and "provide --classes or --strong-check" in err
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dims": [1, 2]}))
    code, out, err = run(capsys, "massey", "--dg-file", str(bad),
                         "--classes", "1:10")
    assert code == 2 and "bad dg algebra file" in err


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


def test_version_and_missing_subcommand(capsys):
    code, out, err = run(capsys, "--version")
    assert code == 0 and "koszulhh 0.1.0" in out
    code, out, err = run(capsys)
    assert code == 2
