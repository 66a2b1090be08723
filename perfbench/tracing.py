"""Per-layer spans around koszulhh's public functions, installed from outside.

The tracer replaces each function in ``TARGETS`` with a wrapper, both where
it is defined and in every ``koszulhh`` module that imported it by name;
methods are replaced on their class.  A wrapper records a span (layer, start,
end, parent) in memory; the self time of a span is its length minus the
lengths of its child spans.  Very hot functions are only counted.  Every
target is resolved before anything is replaced, and a missing one raises
``LookupError``, so a refactor cannot silently drop a layer metric.
"""

from __future__ import annotations

import importlib
import resource
import sys
import time
from array import array

SPAN, COUNT = "span", "count"

# (layer, defining module, qualified name, kind, records peak-RSS rise)
TARGETS = (
    ("koszul.admissible_tuples", "koszulhh.koszul", "admissible_tuples", SPAN, False),
    ("koszul.verify_koszul", "koszulhh.koszul", "verify_koszul", SPAN, False),
    ("hochschild.differential", "koszulhh.hochschild", "HochschildComplex.differential", SPAN, True),
    ("hochschild.rank", "koszulhh.hochschild", "HochschildComplex.rank", SPAN, False),
    ("hochschild.cocycle_space", "koszulhh.hochschild", "HochschildComplex.cocycle_space", SPAN, True),
    ("hochschild.coboundary_of", "koszulhh.hochschild", "HochschildComplex.coboundary_of", SPAN, False),
    ("hochschild.bar_oracle", "koszulhh.hochschild", "HochschildComplex.bar_oracle", SPAN, True),
    ("gf2.echelon_rank", "koszulhh.gf2", "echelon_rank", SPAN, False),
    ("gf2.sparse_rank", "koszulhh.gf2", "sparse_rank", SPAN, False),
    ("gf2.BitMatrix.solve", "koszulhh.gf2", "BitMatrix.solve", SPAN, False),
    ("gf2.BitMatrix.kernel_basis", "koszulhh.gf2", "BitMatrix.kernel_basis", SPAN, False),
    ("gf2.BitMatrix.rank", "koszulhh.gf2", "BitMatrix.rank", SPAN, False),
    ("coboundary.solve_coboundary", "koszulhh.coboundary", "solve_coboundary", SPAN, False),
    ("coboundary.orbit_decomposition", "koszulhh.coboundary", "orbit_decomposition", SPAN, False),
    ("coboundary.extend_cocycle_split", "koszulhh.coboundary", "extend_cocycle_split", SPAN, False),
    ("coboundary.extend_cocycle", "koszulhh.coboundary", "extend_cocycle", SPAN, False),
    ("coboundary.restrict_cochain", "koszulhh.coboundary", "restrict_cochain", SPAN, False),
    ("coboundary.head_tail", "koszulhh.coboundary", "head_tail", COUNT, False),
    ("massey.massey_product_set", "koszulhh.massey", "massey_product_set", SPAN, False),
    ("massey.strong_massey_check", "koszulhh.massey", "strong_massey_check", SPAN, False),
    ("massey.from_connected_sum", "koszulhh.massey", "from_connected_sum", SPAN, False),
    ("massey.DgAlgebra.product", "koszulhh.massey", "DgAlgebra.product", COUNT, False),
    ("cli.main", "koszulhh.cli", "main", SPAN, False),
)

# Reported metrics and units, in BENCHMARK.json order.  Suffixes decide how
# jobs combine: self_s and counts add up, rss_raise_mb takes the largest job,
# ratios are formed from summed parts.
PER_LAYER = (
    ("koszul.admissible_tuples.self_s", "s"),
    ("koszul.admissible_tuples.calls", "count"),
    ("koszul.admissible_tuples.seqs", "count"),
    ("koszul.admissible_tuples.hit_ratio", "ratio"),
    ("hochschild.differential.self_s", "s"),
    ("hochschild.differential.rows", "count"),
    ("hochschild.differential.cols", "count"),
    ("hochschild.differential.rss_raise_mb", "MB"),
    ("hochschild.rank.self_s", "s"),
    ("hochschild.rank.calls", "count"),
    ("hochschild.cocycle_space.self_s", "s"),
    ("hochschild.cocycle_space.rss_raise_mb", "MB"),
    ("hochschild.coboundary_of.self_s", "s"),
    ("hochschild.coboundary_of.calls", "count"),
    ("hochschild.bar_oracle.self_s", "s"),
    ("hochschild.bar_oracle.rss_raise_mb", "MB"),
    ("gf2.echelon_rank.self_s", "s"),
    ("gf2.echelon_rank.calls", "count"),
    ("gf2.echelon_rank.rows_in", "count"),
    ("gf2.echelon_rank.rank_per_row", "ratio"),
    ("gf2.sparse_rank.self_s", "s"),
    ("gf2.sparse_rank.calls", "count"),
    ("gf2.BitMatrix.solve.self_s", "s"),
    ("gf2.BitMatrix.solve.calls", "count"),
    ("gf2.BitMatrix.kernel_basis.self_s", "s"),
    ("gf2.BitMatrix.kernel_basis.calls", "count"),
    ("gf2.BitMatrix.rank.self_s", "s"),
    ("gf2.BitMatrix.rank.calls", "count"),
    ("koszul.verify_koszul.self_s", "s"),
    ("coboundary.solve_coboundary.self_s", "s"),
    ("coboundary.orbit_decomposition.self_s", "s"),
    ("coboundary.extend_cocycle_split.self_s", "s"),
    ("coboundary.extend_cocycle.self_s", "s"),
    ("coboundary.restrict_cochain.self_s", "s"),
    ("coboundary.head_tail.calls", "count"),
    ("massey.massey_product_set.self_s", "s"),
    ("massey.strong_massey_check.self_s", "s"),
    ("massey.from_connected_sum.self_s", "s"),
    ("massey.DgAlgebra.product.calls", "count"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

# ratio metric -> (numerator, denominator) raw counters
RATIOS = {
    "koszul.admissible_tuples.hit_ratio": ("koszul.admissible_tuples.hits", "koszul.admissible_tuples.lookups"),
    "gf2.echelon_rank.rank_per_row": ("gf2.echelon_rank.rank", "gf2.echelon_rank.rows_in"),
}


def self_times(parents, starts, ends, lent) -> list[float]:
    """Span length minus the lengths of its direct children, per span.

    Spans come from one thread, so children nest inside their parent and
    never overlap each other.  ``lent[i]`` is time inside span i that its
    parent spent producing span i's input (rows pulled from the caller's
    generator); it moves from span i's self time to the parent's.
    """
    own = [e - s - x for s, e, x in zip(starts, ends, lent)]
    for i, p in enumerate(parents):
        if p >= 0:
            own[p] -= ends[i] - starts[i] - lent[i]
    return own


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def resolve(module_name: str, qualname: str):
    """(owner, attribute, function) for a target; LookupError if it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError as e:
        raise LookupError(f"traced module {module_name} cannot be imported: {e}") from None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if not isinstance(owner, type):
            raise LookupError(f"traced class {module_name}.{part} is gone")
    fn = owner.__dict__.get(attr)
    if not callable(fn):
        raise LookupError(f"traced function {module_name}.{qualname} is gone")
    return owner, attr, fn


class Tracer:
    def __init__(self):
        self.layer = array("i")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.lent = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self._cached = None

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- wrappers ------------------------------------------------------------

    def _span(self, idx: int, fn, rss: bool):
        tracer = self
        layer = TARGETS[idx][0]
        clock = time.perf_counter

        def span(*args, **kwargs):
            sid = len(tracer.start)
            tracer.layer.append(idx)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.end.append(0.0)
            tracer.lent.append(0.0)
            tracer.stack.append(sid)
            before = _maxrss_mb() if rss else 0.0
            tracer.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[sid] = clock()
                tracer.stack.pop()
                if rss:
                    tracer.add(layer + ".rss_raise_mb", _maxrss_mb() - before)

        return span

    def _wrap(self, idx: int, fn):
        layer, _, _, kind, rss = TARGETS[idx]
        if kind == COUNT:
            def counted(*args, **kwargs):
                self.add(layer + ".calls", 1)
                return fn(*args, **kwargs)

            return counted
        span = self._span(idx, fn, rss)
        if layer == "koszul.admissible_tuples":
            self._cached = fn

            def tuples(*args, **kwargs):
                misses = fn.cache_info().misses
                out = span(*args, **kwargs)
                if fn.cache_info().misses != misses:
                    self.add(layer + ".seqs", len(out))
                return out

            return tuples
        if layer == "hochschild.differential":
            def differential(*args, **kwargs):
                out = span(*args, **kwargs)
                self.add(layer + ".rows", out.n_rows)
                self.add(layer + ".cols", out.n_cols)
                return out

            return differential
        if layer == "gf2.echelon_rank":
            clock = time.perf_counter

            def echelon(int_rows):
                # Rows are built lazily by the caller's generator and stay
                # streamed, so memory is the program's own.  The time of each
                # next() is lent to the caller, whose self time then holds
                # assembly and packing, and spans opened while a row is
                # built get the caller as their parent.
                sid = len(self.start)
                passed = 0

                def rows():
                    nonlocal passed
                    it = iter(int_rows)
                    while True:
                        self.stack.pop()
                        t = clock()
                        try:
                            row = next(it)
                        except StopIteration:
                            return
                        finally:
                            self.lent[sid] += clock() - t
                            self.stack.append(sid)
                        passed += 1
                        yield row

                r = span(rows())
                self.add(layer + ".rows_in", passed)
                self.add(layer + ".rank", r)
                return r

            return echelon
        return span

    def install(self) -> None:
        resolved = [resolve(module, qualname) for _, module, qualname, _, _ in TARGETS]
        for idx, (owner, attr, fn) in enumerate(resolved):
            wrapper = self._wrap(idx, fn)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for name, module in list(sys.modules.items()):
                if name != "koszulhh" and not name.startswith("koszulhh."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)

    # -- results -------------------------------------------------------------

    def report(self) -> dict[str, float]:
        """Raw counters of the layers that ran in this process."""
        out = dict(self.counts)
        for sid, own in enumerate(self_times(self.parent, self.start, self.end, self.lent)):
            layer = TARGETS[self.layer[sid]][0]
            out[layer + ".self_s"] = out.get(layer + ".self_s", 0.0) + own
            out[layer + ".calls"] = out.get(layer + ".calls", 0) + 1
        if self._cached is not None:
            info = self._cached.cache_info()
            out["koszul.admissible_tuples.hits"] = info.hits
            out["koszul.admissible_tuples.lookups"] = info.hits + info.misses
        return out


def combine(jobs: list[dict[str, float]]) -> dict[str, float]:
    """Per-layer metrics of a job list from each job's raw counters.

    Only layers that were called in some job are in the result.
    """
    keys = {key for raw in jobs for key in raw}
    total = {key: sum(raw.get(key, 0.0) for raw in jobs) for key in keys}
    out = {}
    for name, _ in PER_LAYER:
        layer = name.rsplit(".", 1)[0]
        if not total.get(layer + ".calls"):
            continue
        if name in RATIOS:
            num, den = RATIOS[name]
            out[name] = total.get(num, 0.0) / total[den] if total.get(den) else 0.0
        elif name.endswith(".rss_raise_mb"):
            out[name] = max((raw.get(name, 0.0) for raw in jobs), default=0.0)
        else:
            out[name] = total.get(name, 0.0)
    return out
