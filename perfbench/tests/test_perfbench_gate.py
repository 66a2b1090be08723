"""The correctness gate and the job lists.

    python3 -m pytest perfbench/tests
"""

import copy

import pytest

import workloads


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


def test_gate_rejects_a_tampered_reference(reference):
    line = workloads.HH_FIXED[0]
    job = workloads.Job(tuple(line.split()), ref_key=line)
    report = {"manifest": {"wallTimeMs": 5, "stages": []}, **copy.deepcopy(reference[line])}
    assert workloads.check_report(job, report, reference) is None
    tampered = copy.deepcopy(reference)
    tampered[line]["results"][-1]["hh"] += 1
    assert workloads.check_report(job, report, tampered) is not None


def test_gate_ignores_the_manifest_but_not_math_fields(reference):
    line = workloads.KOSZUL_FIXED[0]
    job = workloads.Job(tuple(line.split()), ref_key=line)
    report = {"manifest": {"anything": "new"}, "componentsChecked": 1, **reference[line]}
    assert workloads.check_report(job, report, reference) is None
    assert workloads.check_report(job, {**report, "passed": False}, reference) is not None


def test_bar_consistency_rejects_a_wrong_total():
    ok = {
        "factors": [{"d": 0, "increment": 0, "cumulative": 0}, {"d": 1, "increment": 2, "cumulative": 2}],
        "skippedFrom": None,
        "koszulHh": 2,
    }
    assert workloads._bar_consistent(ok) is None
    assert workloads._bar_consistent({**ok, "koszulHh": 3}) is not None
    # a truncated cell need not reach the Koszul side
    assert workloads._bar_consistent({**ok, "koszulHh": 3, "skippedFrom": 2}) is None


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_jobs_are_seeded_and_have_references(workload, reference):
    for seed in range(20):
        jobs = workloads.jobs_for(workload, seed)
        assert [j.label for j in jobs] == [j.label for j in workloads.jobs_for(workload, seed)]
        for job in jobs:
            assert job.ref_key is None or job.ref_key in reference
            assert job.ref_key is not None or job.consistency is not None


def test_massey_expectation_follows_the_atom_permutation(reference):
    key = workloads.massey_key(workloads.MASSEY_TUPLES[2])
    assert workloads._permuted_class_set([0, 1, 2])(reference[key]) == reference[key]
    moved = workloads._permuted_class_set([2, 0, 1])(reference[key])["classSet"]
    assert sorted(moved) == sorted(
        workloads._permute_bits(c, [2, 0, 1], 0) for c in reference[key]["classSet"]
    )
