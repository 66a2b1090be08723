"""Command line front end.

Every subcommand emits a JSON report with a reproducibility manifest
(command, parameters, seed, versions, wall time, summary); grid-shaped
commands can emit CSV instead.  Exit codes: 0 success, 1 a checked
statement failed on a concrete input, 2 unusable input, 3 a size cap
was exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
import time

from . import __version__ as VERSION
from .algebra import BooleanRing, ConnectedSumAlgebra, GradedElement, Subring, boolean_ring
from .caps import default_cap
from .coboundary import extend_cocycle, extend_cocycle_split, restrict_cochain, solve_coboundary
from .errors import CapExceeded, InvalidDefiningSystemError, NotACocycleError
from .hochschild import Cochain, HochschildComplex
from .koszul import verify_koszul
from .massey import (
    CohomologyClass,
    dg_algebra_from_dict,
    format_bits,
    from_connected_sum,
    massey_product,
    massey_product_set,
    parse_bits,
    strong_massey_check,
    trivial_defining_system,
)

GRID_HEADER = ["k", "s", "cochains", "cocycles", "coboundaries", "hh"]
BAR_HEADER = ["d", "increment", "cumulative"]
CSV_VIEWS = {
    "hh-grid": ("results", GRID_HEADER),
    "kadeishvili": ("results", GRID_HEADER),
    "bar-oracle": ("factors", BAR_HEADER),
}


class UsageError(ValueError):
    pass


# -- input parsing ---------------------------------------------------------


def _atom_mask(name: str, ring: BooleanRing) -> int:
    name = name.strip()
    if not name.startswith("x") or not name[1:].isdigit():
        raise UsageError(f"expected an atom name like x1, got {name!r}")
    idx = int(name[1:])
    if not 1 <= idx <= ring.atom_count:
        raise UsageError(f"atom {name} out of range 1..{ring.atom_count}")
    return ring.atom(idx - 1)


def _parse_element(text: str, ring: BooleanRing) -> int:
    mask = 0
    for part in text.split("+"):
        mask |= _atom_mask(part, ring)
    return mask


def _parse_blocks(text: str, ring: BooleanRing) -> Subring:
    blocks = [_parse_element(part, ring) for part in text.split(",")]
    try:
        return Subring(ring, blocks)
    except ValueError as e:
        raise UsageError(f"bad block structure: {e}") from None


def _element_names(mask: int, ring: BooleanRing) -> str:
    return "+".join(f"x{i + 1}" for i in range(ring.atom_count) if (mask >> i) & 1)


def _build_algebra(args) -> tuple[ConnectedSumAlgebra, Subring | None]:
    if args.v_dim < 0 or args.atoms < 0:
        raise UsageError("generator counts must be nonnegative")
    ring = boolean_ring(args.atoms) if args.atoms else None
    alg = ConnectedSumAlgebra(args.v_dim, ring)
    subring = None
    if getattr(args, "blocks", None):
        if ring is None:
            raise UsageError("--blocks needs a positive atom count")
        subring = _parse_blocks(args.blocks, ring)
    return alg, subring


def _algebra_info(alg: ConnectedSumAlgebra, subring: Subring | None) -> dict:
    info = {"vDim": alg.v_dim, "atoms": alg.atom_count}
    if subring is not None:
        info["subringBlocks"] = [_element_names(b, alg.ring) for b in subring.blocks]
    return info


def _cochain_string(hc: HochschildComplex, f: Cochain) -> str:
    return format_bits(hc.cochain_to_bits(f), hc.cochain_dim(f.k, f.s))


def _cochain_from_string(hc: HochschildComplex, k: int, s: int, text: str) -> Cochain:
    text = "".join(text.split())
    dim = hc.cochain_dim(k, s)
    if len(text) != dim:
        raise UsageError(f"cochain string must have {dim} bits, got {len(text)}")
    try:
        bits = parse_bits(text)
    except ValueError as e:
        raise UsageError(str(e)) from None
    return hc.cochain_from_bits(k, s, bits)


def _input_cochain(args, hc: HochschildComplex, k: int, s: int) -> Cochain:
    if args.cochain is not None:
        return _cochain_from_string(hc, k, s, args.cochain)
    if args.random:
        return hc.random_cocycle(k, s, random.Random(args.seed))
    raise UsageError("provide --cochain BITS or --random")


def _manifest(args, summary: str) -> dict:
    params = {
        key: val
        for key, val in vars(args).items()
        if key not in ("func", "out", "command") and not key.startswith("_")
    }
    return {
        "command": args.command,
        "parameters": params,
        "seed": getattr(args, "seed", None),
        "versions": {"koszulhh": VERSION, "python": sys.version.split()[0]},
        "summary": summary,
    }


def _grid_row(rep) -> dict:
    return {
        "k": rep.k,
        "s": rep.s,
        "cochains": rep.cochains,
        "cocycles": rep.cocycles,
        "coboundaries": rep.coboundaries,
        "hh": rep.cohomology,
    }


# -- subcommand handlers ---------------------------------------------------


def cmd_hh_grid(args) -> tuple[dict, int]:
    alg, subring = _build_algebra(args)
    hc = HochschildComplex(alg, subring, cap=args.cap)
    if args.k_max < 0 or args.s_min > args.s_max:
        raise UsageError("empty bidegree range")
    results = []
    nonzero = 0
    for k in range(args.k_max + 1):
        for s in range(args.s_min, args.s_max + 1):
            rep = hc.hh(k, s)
            results.append(_grid_row(rep))
            if rep.cohomology:
                nonzero += 1
    summary = f"{len(results)} bidegrees computed, {nonzero} nonzero"
    report = {
        "manifest": _manifest(args, summary),
        "algebra": _algebra_info(alg, subring),
        "results": results,
    }
    return report, 0


def cmd_kadeishvili(args) -> tuple[dict, int]:
    alg, subring = _build_algebra(args)
    hc = HochschildComplex(alg, subring, cap=args.cap)
    if args.k_max < 3:
        raise UsageError("the obstruction range starts at k = 3")
    results = []
    failures = []
    for k in range(3, args.k_max + 1):
        rep = hc.hh(k, 2 - k)
        results.append(_grid_row(rep))
        if rep.cohomology:
            failures.append((k, rep.cohomology))
    if failures:
        k, dim = failures[0]
        summary = f"obstruction space at (k, s) = ({k}, {2 - k}) has dimension {dim}"
    else:
        summary = f"all obstruction bidegrees vanish through k = {args.k_max}"
    report = {
        "manifest": _manifest(args, summary),
        "algebra": _algebra_info(alg, subring),
        "results": results,
        "passed": not failures,
    }
    return report, 1 if failures else 0


def cmd_koszul_verify(args) -> tuple[dict, int]:
    alg, _ = _build_algebra(args)
    rep = verify_koszul(alg, args.max_internal_degree, cap=args.cap)
    if rep.passed:
        summary = f"resolution exact through internal degree {args.max_internal_degree}"
    else:
        d, i, val = rep.failures[0]
        summary = f"homology of dimension {val} at internal degree {d}, position {i}"
    report = {
        "manifest": _manifest(args, summary),
        "algebra": _algebra_info(alg, None),
        "results": [
            {"d": d, "position": i, "value": val} for d, i, val in rep.failures
        ],
        "componentsChecked": rep.components_checked,
        "passed": rep.passed,
    }
    return report, 0 if rep.passed else 1


def cmd_bar_oracle(args) -> tuple[dict, int]:
    alg, subring = _build_algebra(args)
    hc = HochschildComplex(alg, subring)
    rep = hc.bar_oracle(args.k, args.s, args.max_internal_degree, cap=args.cap)
    koszul_side = hc.hh(args.k, args.s).cohomology
    factors = [
        {"d": f.d, "increment": f.increment, "cumulative": f.cumulative}
        for f in rep.factors
    ]
    summary = (
        f"cumulative dimension {rep.total} through degree "
        f"{rep.factors[-1].d if rep.factors else -1}; graded model gives {koszul_side}"
    )
    if rep.skipped_from is not None:
        summary += f"; degrees from {rep.skipped_from} skipped by the cap"
    report = {
        "manifest": _manifest(args, summary),
        "algebra": _algebra_info(alg, subring),
        "factors": factors,
        "skippedFrom": rep.skipped_from,
        "koszulHh": koszul_side,
    }
    return report, 0


def cmd_solve_coboundary(args) -> tuple[dict, int]:
    alg, subring = _build_algebra(args)
    hc = HochschildComplex(alg, subring, cap=args.cap)
    f = _input_cochain(args, hc, args.k, args.s)
    g = solve_coboundary(hc, f)
    verified = hc.coboundary_of(g) == f
    summary = "primitive found and verified" if verified else "verification failed"
    report = {
        "manifest": _manifest(args, summary),
        "algebra": _algebra_info(alg, subring),
        "cochain": _cochain_string(hc, f),
        "primitive": _cochain_string(hc, g),
        "primitiveBidegree": {"k": g.k, "s": g.s},
        "verified": verified,
    }
    return report, 0 if verified else 1


def cmd_extend_cocycle(args) -> tuple[dict, int]:
    alg, subring = _build_algebra(args)
    if alg.ring is None:
        raise UsageError("extension needs a positive atom count")
    if subring is None:
        subring = Subring.trivial(alg.ring)
    x = _parse_element(args.adjoin, alg.ring)
    hc = HochschildComplex(alg, subring, cap=args.cap)
    k = args.k
    s = 1 - k
    f = _input_cochain(args, hc, k, s)
    if args.mode == "branch":
        if args.random:
            # project to multiples of x; masking the payload preserves cocycles
            shifted = tuple(((v >> alg.v_dim) & x) << alg.v_dim for v in f.values)
            f = Cochain(k, s, shifted)
        hc2, f2 = extend_cocycle(hc, x, f)
    else:
        hc2, f2 = extend_cocycle_split(hc, x, f)
    verified = hc2.is_cocycle(f2) and restrict_cochain(hc2, hc, f2) == f
    new_blocks = [_element_names(b, alg.ring) for b in hc2.subring.blocks] if hc2.subring else []
    summary = (
        f"extended over {len(new_blocks)} blocks and verified"
        if verified
        else "verification failed"
    )
    report = {
        "manifest": _manifest(args, summary),
        "algebra": _algebra_info(alg, subring),
        "adjoined": _element_names(x, alg.ring),
        "refinedBlocks": new_blocks,
        "cochain": _cochain_string(hc, f),
        "extended": _cochain_string(hc2, f2),
        "verified": verified,
    }
    return report, 0 if verified else 1


def _massey_algebra(args):
    if args.dg_file:
        with open(args.dg_file) as fh:
            data = json.load(fh)
        try:
            return dg_algebra_from_dict(data), {"dgDims": list(data["dims"])}
        except (KeyError, ValueError) as e:
            raise UsageError(f"bad dg algebra file: {e}") from None
    alg, _ = _build_algebra(args)
    dg = from_connected_sum(alg, args.top)
    return dg, _algebra_info(alg, None)


def _parse_classes(text: str, dg) -> list[CohomologyClass]:
    out = []
    for part in text.split(","):
        if ":" not in part:
            raise UsageError("classes look like DEGREE:BITS, comma separated")
        dtxt, btxt = part.split(":", 1)
        try:
            d = int(dtxt)
        except ValueError:
            raise UsageError(f"bad degree {dtxt!r}") from None
        btxt = btxt.strip()
        if len(btxt) != dg.dim(d):
            raise UsageError(
                f"class in degree {d} needs {dg.dim(d)} bits, got {len(btxt)}"
            )
        out.append(CohomologyClass(dg, GradedElement(d, parse_bits(btxt))))
    return out


def cmd_massey(args) -> tuple[dict, int]:
    dg, info = _massey_algebra(args)
    manifest_extra: dict = {}
    if args.strong_check:
        rep = strong_massey_check(dg, samples=args.samples, max_n=args.max_n, seed=args.seed)
        summary = (
            f"{rep.checked} sampled tuples, all products vanish"
            if rep.all_zero
            else f"nonzero product among {rep.checked} sampled tuples"
        )
        report = {
            "manifest": _manifest(args, summary),
            "algebra": info,
            "samples": rep.samples,
            "maxN": rep.max_n,
            "checked": rep.checked,
            "allZero": rep.all_zero,
            "failures": [list(f) for f in rep.failures],
        }
        return report, 0 if rep.all_zero else 1
    if not args.classes:
        raise UsageError("provide --classes or --strong-check")
    classes = _parse_classes(args.classes, dg)
    if args.enumerate:
        reps = massey_product_set(dg, classes, cap=args.cap or (1 << 20))
        degree = sum(c.degree for c in classes) - len(classes) + 2
        summary = f"{len(reps)} distinct product classes; zero attained: {0 in reps}"
        report = {
            "manifest": _manifest(args, summary),
            "algebra": info,
            "productDegree": degree,
            "classSet": [format_bits(r, dg.dim(degree)) for r in sorted(reps)],
            "containsZero": 0 in reps,
        }
        return report, 0
    ds = trivial_defining_system(dg, classes)
    product = massey_product(ds)
    zero = product.is_zero_class()
    summary = "product class is zero" if zero else "product class is nonzero"
    report = {
        "manifest": _manifest(args, summary),
        "algebra": info,
        "productDegree": product.degree,
        "product": format_bits(product.element.bits, dg.dim(product.degree)),
        "isZeroClass": zero,
    }
    return report, 0 if zero else 1


def cmd_replay(args) -> tuple[dict, int]:
    try:
        with open(args.manifest) as fh:
            stored = json.load(fh)
        manifest = stored["manifest"]
        command = manifest["command"]
        params = dict(manifest["parameters"])
    except (OSError, KeyError, json.JSONDecodeError) as e:
        raise UsageError(f"unusable report file: {e}") from None
    handler = HANDLERS.get(command)
    if handler is None or command == "replay":
        raise UsageError(f"cannot replay command {command!r}")
    params["command"] = command
    rerun, _ = handler(argparse.Namespace(**params))

    def strip(d: dict) -> dict:
        out = json.loads(json.dumps(d))
        out.get("manifest", {}).pop("wallTimeMs", None)
        return out

    match = strip(rerun) == strip(stored)
    summary = "replay matches the stored report" if match else "replay differs"
    report = {
        "manifest": _manifest(args, summary),
        "replayedCommand": command,
        "match": match,
    }
    return report, 0 if match else 1


HANDLERS = {
    "hh-grid": cmd_hh_grid,
    "kadeishvili": cmd_kadeishvili,
    "koszul-verify": cmd_koszul_verify,
    "bar-oracle": cmd_bar_oracle,
    "solve-coboundary": cmd_solve_coboundary,
    "extend-cocycle": cmd_extend_cocycle,
    "massey": cmd_massey,
    "replay": cmd_replay,
}


# -- parser ----------------------------------------------------------------


def _add_algebra_opts(p: argparse.ArgumentParser, blocks: bool = True) -> None:
    p.add_argument("--v-dim", type=int, default=0, help="free generator count")
    p.add_argument("--atoms", type=int, default=0, help="Boolean atom count")
    if blocks:
        p.add_argument(
            "--blocks",
            default=None,
            help="coefficient subring blocks, like 'x1+x2,x3' (default: all atoms)",
        )


def _add_output_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _add_cap_opt(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--cap",
        type=_positive_int,
        default=None,
        help="size guard override (default from KOSZULHH_CAP)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="koszulhh",
        description="Exact bigraded Hochschild cohomology of Boolean connected sums",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hh-grid", help="cohomology dimensions over a bidegree window")
    _add_algebra_opts(p)
    p.add_argument("--k-max", type=int, default=6)
    p.add_argument("--s-min", type=int, default=-4)
    p.add_argument("--s-max", type=int, default=0)
    _add_cap_opt(p)
    _add_output_opts(p)
    p.set_defaults(func=cmd_hh_grid)

    p = sub.add_parser("kadeishvili", help="check the obstruction bidegrees (k, 2-k)")
    _add_algebra_opts(p)
    p.add_argument("--k-max", type=int, default=6)
    _add_cap_opt(p)
    _add_output_opts(p)
    p.set_defaults(func=cmd_kadeishvili)

    p = sub.add_parser("koszul-verify", help="exactness of the two-sided resolution")
    _add_algebra_opts(p, blocks=False)
    p.add_argument("--max-internal-degree", type=int, default=6)
    _add_cap_opt(p)
    _add_output_opts(p)
    p.set_defaults(func=cmd_koszul_verify)

    p = sub.add_parser("bar-oracle", help="bar-complex cross-check, degree by degree")
    _add_algebra_opts(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--max-internal-degree", type=int, default=8)
    p.add_argument(
        "--cap",
        type=_positive_int,
        default=None,
        help="bar matrix node guard (default from KOSZULHH_BAR_CAP)",
    )
    _add_output_opts(p)
    p.set_defaults(func=cmd_bar_oracle)

    p = sub.add_parser("solve-coboundary", help="explicit primitive of a cocycle")
    _add_algebra_opts(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--cochain", default=None, help="0/1 string over the cochain basis")
    p.add_argument("--random", action="store_true", help="sample a random cocycle")
    p.add_argument("--seed", type=int, default=0)
    _add_cap_opt(p)
    _add_output_opts(p)
    p.set_defaults(func=cmd_solve_coboundary)

    p = sub.add_parser("extend-cocycle", help="extend a cocycle along a subring refinement")
    _add_algebra_opts(p)
    p.add_argument("--adjoin", required=True, help="element to adjoin, like 'x1+x3'")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=("branch", "split"), default="split")
    p.add_argument("--cochain", default=None, help="0/1 string over the cochain basis")
    p.add_argument("--random", action="store_true", help="sample a random cocycle")
    p.add_argument("--seed", type=int, default=0)
    _add_cap_opt(p)
    _add_output_opts(p)
    p.set_defaults(func=cmd_extend_cocycle)

    p = sub.add_parser("massey", help="higher products in a finite dg algebra")
    _add_algebra_opts(p, blocks=False)
    p.add_argument("--top", type=int, default=8, help="truncation degree")
    p.add_argument("--dg-file", default=None, help="JSON dg algebra instead of --v-dim/--atoms")
    p.add_argument("--classes", default=None, help="comma separated DEGREE:BITS entries")
    p.add_argument("--enumerate", action="store_true", help="all defining systems")
    p.add_argument("--strong-check", action="store_true", help="sampled vanishing check")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--max-n", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    _add_cap_opt(p)
    _add_output_opts(p)
    p.set_defaults(func=cmd_massey)

    p = sub.add_parser("replay", help="re-run a stored report and compare")
    p.add_argument("--manifest", required=True, help="path to a JSON report")
    _add_output_opts(p)
    p.set_defaults(func=cmd_replay)

    return parser


def _render(report: dict, args) -> str:
    if getattr(args, "format", "json") == "csv":
        view = CSV_VIEWS.get(args.command)
        if view is None:
            raise UsageError(f"{args.command} has no CSV form")
        key, header = view
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        for row in report[key]:
            writer.writerow([row[h] for h in header])
        return buf.getvalue()
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    started = time.perf_counter()
    try:
        report, code = args.func(args)
        report["manifest"]["wallTimeMs"] = int((time.perf_counter() - started) * 1000)
        text = _render(report, args)
    except CapExceeded as e:
        print(f"cap exceeded: {e}", file=sys.stderr)
        return 3
    except MemoryError:
        print("out of memory: the computation does not fit; try a smaller input", file=sys.stderr)
        return 3
    except (UsageError, NotACocycleError, InvalidDefiningSystemError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
