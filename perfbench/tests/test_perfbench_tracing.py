"""Self-time arithmetic, the wrappers' hold on the library, and the job runner.

    python3 -m pytest perfbench/tests
"""

import json
import os
import sys
import time

import pytest

import run
import tracing
import workloads


def test_self_time_of_a_nested_trace():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    lent = [0.0] * 4
    assert tracing.self_times(parents, starts, ends, lent) == [3.0, 2.0, 1.0, 4.0]


def test_time_lent_to_the_caller_moves_to_its_self_time():
    # root [0, 10] calls a [1, 5], which spends 3 s pulling rows from root's
    # generator; while one row is built, c [2, 3] runs with root as parent
    parents = [-1, 0, 0]
    starts = [0.0, 1.0, 2.0]
    ends = [10.0, 5.0, 3.0]
    lent = [0.0, 3.0, 0.0]
    assert tracing.self_times(parents, starts, ends, lent) == [8.0, 1.0, 1.0]


def test_echelon_rows_stay_streamed():
    events = []

    def rows():
        for row in (0b1, 0b10, 0b11):
            events.append("made")
            yield row

    def fake_echelon_rank(int_rows):
        for _ in int_rows:
            events.append("used")
        return 2

    tracer = tracing.Tracer()
    idx = [t[0] for t in tracing.TARGETS].index("gf2.echelon_rank")
    assert tracer._wrap(idx, fake_echelon_rank)(rows()) == 2
    assert events == ["made", "used"] * 3
    assert tracer.stack == []
    raw = tracer.report()
    assert raw["gf2.echelon_rank.rows_in"] == 3 and raw["gf2.echelon_rank.rank"] == 2
    assert 0 < tracer.lent[0] <= tracer.end[0] - tracer.start[0]


def test_combine_sums_counts_and_keeps_ratios_and_peaks():
    jobs = [
        {"gf2.echelon_rank.rank": 3, "gf2.echelon_rank.rows_in": 4, "hochschild.bar_oracle.rss_raise_mb": 5.0,
         "gf2.echelon_rank.calls": 1, "hochschild.bar_oracle.calls": 1},
        {"gf2.echelon_rank.rank": 1, "gf2.echelon_rank.rows_in": 4, "hochschild.bar_oracle.rss_raise_mb": 2.0,
         "gf2.echelon_rank.calls": 2, "hochschild.bar_oracle.calls": 1},
    ]
    out = tracing.combine(jobs)
    assert out["gf2.echelon_rank.rank_per_row"] == 0.5
    assert out["gf2.echelon_rank.calls"] == 3
    assert out["hochschild.bar_oracle.rss_raise_mb"] == 5.0
    # layers that never ran are left out
    assert "koszul.admissible_tuples.hit_ratio" not in out


def test_every_target_resolves():
    for _, module, qualname, _, _ in tracing.TARGETS:
        _, _, fn = tracing.resolve(module, qualname)
        assert callable(fn)


def test_a_vanished_target_fails_loudly_before_anything_is_wrapped(monkeypatch):
    import koszulhh.gf2
    from koszulhh.hochschild import HochschildComplex

    differential = HochschildComplex.__dict__["differential"]
    monkeypatch.delattr(koszulhh.gf2, "sparse_rank")
    with pytest.raises(LookupError, match="sparse_rank"):
        tracing.Tracer().install()
    assert HochschildComplex.__dict__["differential"] is differential


def test_benchmark_json_lists_what_the_benchmark_emits():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(tracing.PER_LAYER)
    assert {(m["name"], m["unit"]) for m in bench["end_to_end"]} == set(run.E2E_UNITS.items())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize(
    "line, layer, absent",
    [
        ("hh-grid --v-dim 1 --atoms 2 --k-max 3 --s-min -1 --s-max -1", "hochschild.rank.calls",
         "hochschild.bar_oracle.self_s"),
        ("bar-oracle --v-dim 0 --atoms 2 --k 2 --s -1 --max-internal-degree 4", "gf2.echelon_rank.rows_in",
         "gf2.BitMatrix.solve.calls"),
        ("massey --v-dim 1 --atoms 2 --top 4 --classes 1:010,1:001,1:010 --enumerate", "gf2.BitMatrix.solve.calls",
         "gf2.echelon_rank.calls"),
    ],
)
def test_traced_child_reports_the_layers_that_ran(line, layer, absent):
    job = workloads.Job(tuple(line.split()), consistency=lambda report: None)
    sample = run.run_job(job, True, {}, time.monotonic() + 60)
    assert sample.error is None
    combined = tracing.combine([sample.layers])
    assert combined[layer] > 0
    assert combined["cli.main.self_s"] > 0
    assert absent not in combined


def test_an_unexpected_exit_code_is_a_failed_job():
    # exit 2: the CLI rejects the empty bidegree range
    job = workloads.Job(tuple("hh-grid --atoms 2 --k-max -1".split()), consistency=lambda report: None)
    sample = run.run_job(job, False, {}, time.monotonic() + 60)
    assert sample.error is not None and sample.error.startswith("exit code 2")
    assert sample.setup_s is not None


def test_failed_samples_stay_out_of_the_times():
    ok = run.Sample(0.1, 2.0, 50.0, None, run.GAUGE_REF_S)
    crashed = run.Sample(0.3, 0.01, 80.0, "exit code 1: MemoryError", run.GAUGE_REF_S / 2)
    unstarted = run.Sample(None, 0.0, 0.0, "not started: run budget spent")
    e2e = run.end_to_end([[ok, crashed], [ok, unstarted]], True)
    assert e2e == {"setup_s": 0.1, "wall_s": 4.0, "peak_rss_mb": 80.0}


def test_the_gauge_is_read_while_the_child_is_stopped():
    sleeper = [sys.executable, "-c", "import time; time.sleep(0.35)"]
    code, *_, started, ended, pauses, readings = run.spawn(lambda fd: sleeper, time.monotonic() + 60)
    assert code == 0
    assert len(readings) == len(pauses) >= 3
    assert all(started <= a < b <= ended for a, b in pauses)
    assert run.paused(pauses, started, ended) == pytest.approx(sum(b - a for a, b in pauses))


def test_a_job_killed_at_the_deadline_is_a_failed_job():
    job = workloads.Job(tuple(workloads.HH_FIXED[2].split()), consistency=lambda report: None)
    sample = run.run_job(job, False, {}, time.monotonic() + 0.5)
    assert sample.error is not None and sample.error.startswith("exit code -9")
