"""Job lists of the four benchmark workloads and the correctness gate.

A job is one ``koszulhh`` subcommand line.  Fixed jobs are compared exactly
against ``reference.json``, recorded at the seed commit.  Seed-drawn jobs
vary their inputs through symmetries that keep the cost of a job unchanged
(atom permutations, cocycle seeds, cells of equal cost), so the seed changes
what the program sees without changing how much work a run measures.  Each
seed-drawn job carries a self-consistency check, and where its answer is an
image of a recorded one under the drawn symmetry it is compared exactly too.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# Only these report fields carry mathematics; the manifest never counts.
MATH_FIELDS = (
    "results",
    "factors",
    "skippedFrom",
    "koszulHh",
    "passed",
    "verified",
    "classSet",
    "checked",
)

WORKLOADS = ("hh-grid", "bar-oracle", "primitives", "massey-verify")


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    # key of the recorded answer this job must reproduce, or None
    ref_key: str | None = None
    # maps the recorded math fields to the ones this job must report
    expect: Callable[[dict], dict] = field(default=lambda ref: ref, compare=False)
    # extra self-consistency check: returns an error message or None
    consistency: Callable[[dict], str | None] | None = field(default=None, compare=False)

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def math_fields(report: dict) -> dict:
    return {key: report[key] for key in MATH_FIELDS if key in report}


def check_report(job: Job, report: dict, reference: dict) -> str | None:
    """Error message if the report is wrong, None if it passes the gate."""
    if job.ref_key is not None:
        if job.ref_key not in reference:
            return f"no recorded reference for {job.ref_key!r}"
        if math_fields(report) != job.expect(reference[job.ref_key]):
            return "mathematical fields differ from the recorded reference"
    if job.consistency is not None:
        return job.consistency(report)
    return None


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _split(line: str) -> tuple[str, ...]:
    return tuple(line.split())


def _fixed(line: str, consistency=None) -> Job:
    return Job(_split(line), ref_key=line, consistency=consistency)


# -- symmetries ------------------------------------------------------------


def _atom_names(atoms, perm) -> str:
    return "+".join(f"x{perm[a] + 1}" for a in atoms)


def _blocks_arg(blocks, perm, rng) -> str:
    """Blocks as a --blocks string after relabelling atoms, in a drawn order."""
    moved = [_atom_names(b, perm) for b in blocks]
    rng.shuffle(moved)
    return ",".join(moved)


def _permute_bits(text: str, perm, offset: int) -> str:
    """Move the atom character at offset+a to offset+perm[a]."""
    out = list(text)
    for a, b in enumerate(perm):
        out[offset + b] = text[offset + a]
    return "".join(out)


def _bits_value(text: str) -> int:
    return sum(1 << i for i, ch in enumerate(text) if ch == "1")


# -- self-consistency checks -----------------------------------------------


def _grid_consistent(report: dict) -> str | None:
    for row in report.get("results", []):
        if not 0 <= row["coboundaries"] <= row["cocycles"] <= row["cochains"]:
            return f"rank bookkeeping out of order at {row['k'], row['s']}"
        if row["hh"] != row["cocycles"] - row["coboundaries"]:
            return f"hh != cocycles - coboundaries at {row['k'], row['s']}"
    return None


def _bar_consistent(report: dict) -> str | None:
    cum = 0
    for f in report["factors"]:
        cum += f["increment"]
        if f["cumulative"] != cum:
            return f"cumulative sum broken at degree {f['d']}"
    if report["skippedFrom"] is None and cum != report["koszulHh"]:
        return f"bar total {cum} != Koszul side {report['koszulHh']}"
    return None


def _verified(report: dict) -> str | None:
    return None if report.get("verified") is True else "primitive or extension not verified"


def _strong_consistent(samples: int) -> Callable[[dict], str | None]:
    def check(report: dict) -> str | None:
        if report["checked"] != samples:
            return f"checked {report['checked']} of {samples} samples"
        if not report["allZero"] or report["failures"]:
            return "a sampled Massey product is nonzero"
        return None

    return check


# -- hh-grid ---------------------------------------------------------------

HH_FIXED = (
    "hh-grid --v-dim 1 --atoms 3 --k-max 8 --s-min -2 --s-max -1",
    "hh-grid --v-dim 2 --atoms 3 --k-max 7 --s-min -2 --s-max -1",
    "hh-grid --v-dim 2 --atoms 4 --k-max 6 --s-min -2 --s-max -1",
    "kadeishvili --v-dim 2 --atoms 3 --k-max 7",
)
HH_BLOCKS = ((0, 1), (2,), (3,))
HH_BLOCKS_LINE = "hh-grid --v-dim 2 --atoms 4 --blocks {} --k-max 7 --s-min -2 --s-max -1"
HH_BLOCKS_KEY = HH_BLOCKS_LINE.format("x1+x2,x3,x4")


def hh_grid_jobs(rng: random.Random) -> list[Job]:
    jobs = [_fixed(line, _grid_consistent) for line in HH_FIXED]
    # Relabelled atoms give an isomorphic subring, hence the same grid.  x1
    # stays in the pair, so the pair stays the first block: the block order
    # sets the sequence order and with it the stored row widths, which moved
    # peak RSS by 1.7% between seeds.
    perm = [0] + rng.sample(range(1, 4), 3)
    blocks = _blocks_arg(HH_BLOCKS, perm, rng)
    jobs.append(
        Job(_split(HH_BLOCKS_LINE.format(blocks)), HH_BLOCKS_KEY, consistency=_grid_consistent)
    )
    return jobs


# -- bar-oracle ------------------------------------------------------------


def _bar_line(cell) -> str:
    m, n, k, s = cell
    return (
        f"bar-oracle --v-dim {m} --atoms {n} --k {k} --s {s} "
        "--max-internal-degree 8 --cap 250000"
    )


# Heavy acceptance cells (zero cohomology, 2 eliminations each) and the four
# exceptional fixtures (nonzero cohomology, 20 eliminations each).
BAR_FIXED = (
    (2, 2, 6, -4),
    (0, 3, 6, -4),
    (1, 3, 4, -2),
    (0, 3, 2, -1),
    (0, 3, 3, -2),
    (1, 3, 2, -1),
    (1, 3, 3, -2),
)
# One cell is drawn from each stratum; cells in a stratum cost within ~15%
# of each other at depth 8, so the seed moves the mix but not the run length.
BAR_STRATA = (
    # full depth, nonzero cohomology
    ((0, 3, 5, -4), (0, 3, 6, -5), (1, 3, 4, -3)),
    # full depth, zero cohomology
    ((0, 3, 5, -1), (0, 3, 5, -2), (0, 3, 5, -3), (0, 3, 6, -1), (0, 3, 6, -3), (1, 3, 4, -1)),
    # truncated by the cap (skippedFrom set)
    (
        (1, 3, 5, -1), (1, 3, 5, -2), (1, 3, 5, -3), (1, 3, 6, -2),
        (1, 3, 6, -3), (1, 3, 6, -4), (2, 3, 4, -2), (2, 3, 5, -4),
    ),
)


def bar_oracle_jobs(rng: random.Random) -> list[Job]:
    cells = list(BAR_FIXED) + [rng.choice(stratum) for stratum in BAR_STRATA]
    return [_fixed(_bar_line(cell), _bar_consistent) for cell in cells]


# -- primitives ------------------------------------------------------------

# (v_dim, atoms, blocks or None, k, s); all in the vanishing range k+s >= 2
SOLVE_CASES = (
    (1, 3, None, 7, -1),
    (2, 3, None, 6, -2),
    (1, 4, ((0, 1), (2,), (3,)), 7, -2),
    (2, 4, ((0, 1), (2,), (3,)), 6, -2),
)
# (v_dim, atoms, blocks, k, mode); the first block is the one split
EXTEND_CASES = (
    (1, 3, ((0, 1), (2,)), 7, "split"),
    (1, 3, ((0, 1), (2,)), 7, "branch"),
    (2, 3, ((0, 1), (2,)), 6, "split"),
    (2, 3, ((0, 1), (2,)), 6, "branch"),
    (1, 4, ((0, 1), (2,), (3,)), 6, "split"),
    (2, 4, ((0, 1), (2, 3)), 6, "branch"),
)


def primitives_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    for m, n, blocks, k, s in SOLVE_CASES:
        line = f"solve-coboundary --v-dim {m} --atoms {n} --k {k} --s {s}"
        if blocks:
            line += " --blocks " + _blocks_arg(blocks, rng.sample(range(n), n), rng)
        line += f" --random --seed {rng.randrange(1 << 30)}"
        jobs.append(Job(_split(line), consistency=_verified))
    for m, n, blocks, k, mode in EXTEND_CASES:
        perm = rng.sample(range(n), n)
        # adjoin one atom of the split block, plus any of the other blocks
        adjoin = [rng.choice(blocks[0])] + [a for b in blocks[1:] if rng.getrandbits(1) for a in b]
        line = (
            f"extend-cocycle --v-dim {m} --atoms {n} --blocks {_blocks_arg(blocks, perm, rng)} "
            f"--adjoin {_atom_names(sorted(adjoin), perm)} --k {k} --mode {mode} "
            f"--random --seed {rng.randrange(1 << 30)}"
        )
        jobs.append(Job(_split(line), consistency=_verified))
    return jobs


# -- massey-verify ---------------------------------------------------------

# Degree-1 classes on (1,3): character 0 is v1, characters 1..3 are atoms.
MASSEY_TUPLES = (
    ("0100", "0010", "0001", "0100"),
    ("1100", "0010", "1001", "0100"),
    ("0100", "1010", "0100", "0001"),
)
MASSEY_LINE = "massey --v-dim 1 --atoms 3 --top 6 --classes {} --enumerate"
STRONG_LINE = "massey --v-dim 1 --atoms 3 --strong-check --samples {} --seed {}"
STRONG_SAMPLES = 3000
KOSZUL_FIXED = (
    "koszul-verify --v-dim 1 --atoms 3 --max-internal-degree 7",
    "koszul-verify --v-dim 2 --atoms 2 --max-internal-degree 7",
    "koszul-verify --v-dim 0 --atoms 4 --max-internal-degree 7",
)


def massey_key(classes) -> str:
    return MASSEY_LINE.format(",".join(f"1:{c}" for c in classes))


def _permuted_class_set(perm) -> Callable[[dict], dict]:
    """Products land in degree 2, which holds atoms only; relabel them."""

    def expect(ref: dict) -> dict:
        moved = [_permute_bits(c, perm, 0) for c in ref["classSet"]]
        return {"classSet": sorted(moved, key=_bits_value)}

    return expect


def massey_verify_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    for classes in MASSEY_TUPLES:
        perm = rng.sample(range(3), 3)
        moved = [_permute_bits(c, perm, 1) for c in classes]
        jobs.append(
            Job(_split(massey_key(moved)), massey_key(classes), expect=_permuted_class_set(perm))
        )
    strong = STRONG_LINE.format(STRONG_SAMPLES, rng.randrange(1 << 30))
    jobs.append(Job(_split(strong), consistency=_strong_consistent(STRONG_SAMPLES)))
    jobs.extend(_fixed(line) for line in KOSZUL_FIXED)
    return jobs


GENERATORS = {
    "hh-grid": hh_grid_jobs,
    "bar-oracle": bar_oracle_jobs,
    "primitives": primitives_jobs,
    "massey-verify": massey_verify_jobs,
}


def jobs_for(workload: str, seed: int) -> list[Job]:
    return GENERATORS[workload](random.Random(seed))


def reference_lines() -> list[str]:
    """Every command line whose answer reference.json records."""
    lines = list(HH_FIXED) + [HH_BLOCKS_KEY]
    lines += [_bar_line(c) for c in BAR_FIXED]
    lines += [_bar_line(c) for stratum in BAR_STRATA for c in stratum]
    lines += [massey_key(c) for c in MASSEY_TUPLES]
    lines += list(KOSZUL_FIXED)
    return lines
