"""The command-line contract as a property test.

Argument lists are drawn from each subcommand's own option table and run
in-process through cli.main.  Whatever the input, the exit code is 0-3 and
no traceback appears; a refusal (2) or a cap breach (3) prints nothing on
stdout and one line on stderr; a success prints the promised format, and a
JSON report replays with exit 0.  Sizes stay small, so no case runs long:
every option that sets a size is drawn from about -2..4, and the options
whose defaults reach far (--k-max, --max-internal-degree, --top) are always
given.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from koszulhh import cli

SUBPARSERS = next(
    a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
).choices
ALWAYS_GIVEN = {"k_max", "max_internal_degree", "top"}
SMALL_INT = st.integers(-2, 4)
BITS = st.text("01", max_size=6)
TEXT = {
    "blocks": st.text("x1234+, ", max_size=8),
    "adjoin": st.text("x1234+ ", max_size=6),
    "classes": st.lists(
        st.builds("{}:{}".format, st.integers(-1, 3), BITS), max_size=4
    ).map(",".join)
    | st.text("01:,x-", max_size=8),
    "cochain": st.text("01", max_size=40) | st.text("01x ", max_size=4),
}

# a dg algebra file: mostly the shape dg_algebra_from_dict reads, with
# small or wrong entries, sometimes any JSON, sometimes not JSON at all
DG_SHAPED = st.fixed_dictionaries(
    {"dims": st.lists(st.integers(-1, 3), max_size=4)},
    optional={
        "differentials": st.lists(st.lists(BITS, max_size=3), max_size=4),
        "multiplication": st.dictionaries(
            st.lists(st.integers(-1, 2), min_size=3, max_size=5).map(
                lambda xs: ",".join(map(str, xs))
            ),
            BITS,
            max_size=6,
        ),
        "unit": BITS,
    },
)
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | BITS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["dims", "differentials", "multiplication", "unit"]), inner),
    max_leaves=8,
)
DG_FILE = DG_SHAPED.map(json.dumps) | ANY_JSON.map(json.dumps) | st.text("{}[]01,:\"", max_size=6)


def run(argv: list[str]) -> tuple[int, str, str]:
    """cli.main in-process; an exception escaping it is a traceback for the user."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def check_contract(argv: list[str], folder: str) -> None:
    code, out, err = run(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in out + err, argv
    if code in (2, 3):
        assert out == "", argv
        assert err.endswith("\n") and err.count("\n") == 1, (argv, err)
    if code != 0:
        return
    if "--format=csv" in argv:
        rows = list(csv.reader(io.StringIO(out)))
        assert rows and rows[0] == list(cli.CSV_VIEWS[argv[0]][1]), argv
        return
    report = json.loads(out)
    if argv[0] == "replay":
        return
    path = os.path.join(folder, "report.json")
    with open(path, "w") as fh:
        fh.write(out)
    replayed = run(["replay", f"--manifest={path}"])
    assert replayed[0] == 0 and json.loads(replayed[1])["match"], (argv, replayed)
    assert report["manifest"]["command"] == argv[0]


def option_values(draw, parser: argparse.ArgumentParser) -> list[str]:
    argv = []
    for action in parser._actions:
        if not action.option_strings or action.dest in ("help", "out", "manifest"):
            continue
        opt = action.option_strings[0]
        if action.nargs == 0:
            if draw(st.booleans()):
                argv.append(opt)
            continue
        # a required option is left out now and then, an optional one often
        chance = 8 if action.required else 5
        if action.dest not in ALWAYS_GIVEN and draw(st.integers(0, 9)) >= chance:
            continue
        if action.choices:
            value = draw(st.sampled_from(action.choices))
        elif action.dest == "dg_file":
            value = draw(DG_FILE)
        elif action.dest in TEXT:
            value = draw(TEXT[action.dest])
        else:
            value = draw(SMALL_INT)
        argv.append(f"{opt}={value}")
    return draw(st.permutations(argv))


@st.composite
def command_lines(draw) -> list[str]:
    """A command line; a --dg-file value is the file's text, written at run time."""
    command = draw(st.sampled_from(sorted(set(SUBPARSERS) - {"replay"})))
    return [command, *option_values(draw, SUBPARSERS[command])]


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(command_lines())
# argparse once passed --classes=-- on as [], and the report did not replay
@example(
    ["massey", "--atoms=1", "--top=1", "--classes=--", "--strong-check", "--samples=1", "--format=json"]
)
def test_every_command_line_keeps_the_contract(argv):
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "dg.json")
        for arg in argv:
            if arg.startswith("--dg-file="):
                with open(path, "w") as fh:
                    fh.write(arg.partition("=")[2])
        argv = [f"--dg-file={path}" if a.startswith("--dg-file=") else a for a in argv]
        check_contract(argv, folder)


# reports to edit: small runs of every command that replay can rerun
BASE_LINES = (
    "hh-grid --atoms=2 --k-max=2 --s-min=-1 --s-max=0",
    "kadeishvili --v-dim=1 --atoms=1 --k-max=3",
    "koszul-verify --atoms=2 --max-internal-degree=2",
    "bar-oracle --atoms=2 --k=1 --s=0 --max-internal-degree=3",
    "solve-coboundary --atoms=3 --k=2 --s=0 --random --seed=1",
    "extend-cocycle --atoms=2 --adjoin=x1 --k=2 --random",
    "massey --atoms=3 --top=3 --classes=1:100,1:010",
)
FIELD_VALUES = st.none() | st.booleans() | SMALL_INT | st.text("x01+,:-", max_size=4)


@st.composite
def edited_reports(draw) -> str:
    code, out, _ = run(draw(st.sampled_from(BASE_LINES)).split())
    assert code in (0, 1)
    report = json.loads(out)
    manifest = report["manifest"]
    params = manifest["parameters"]
    edit = draw(st.sampled_from(["drop", "set", "add", "command", "result", "truncate", "shape"]))
    if edit == "drop":
        target = draw(st.sampled_from([report, manifest, params]))
        if target:
            del target[draw(st.sampled_from(sorted(target)))]
    elif edit == "set":
        params[draw(st.sampled_from(sorted(params)))] = draw(FIELD_VALUES)
    elif edit == "add":
        params[draw(st.text("abk_", min_size=1, max_size=4))] = draw(FIELD_VALUES)
    elif edit == "command":
        manifest["command"] = draw(st.sampled_from([*SUBPARSERS, "", "nope"]) | FIELD_VALUES)
    elif edit == "result":
        key = draw(st.sampled_from(sorted(set(report) - {"manifest"})))
        report[key] = draw(FIELD_VALUES)
    elif edit == "shape":
        report = draw(st.sampled_from([[], None, 3, {"manifest": None}, {"manifest": []}]))
    text = json.dumps(report)
    if edit == "truncate":
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(edited_reports(), st.sampled_from(["json", "csv"]))
def test_replay_of_an_edited_report_keeps_the_contract(text, fmt):
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "edited.json")
        with open(path, "w") as fh:
            fh.write(text)
        check_contract(["replay", f"--manifest={path}", f"--format={fmt}"], folder)
