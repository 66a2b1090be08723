"""koszulhh benchmark: one-shot CLI jobs, each in a fresh interpreter.

    python3 perfbench/run.py --workload hh-grid --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a source checkout; the program is imported from
its ``src`` directory and nothing is installed.  A closed loop with one
client runs the workload's job list (see workloads.py) job after job, one
child at a time, until ``--seconds`` have passed, always finishing at least
one full pass.  Every report goes through the correctness gate.

``--trace 0`` prints the end-to-end metrics:

- ``setup_s``: child start until ``koszulhh.cli`` is imported, median over jobs;
- ``wall_s``: sum over the job list of each job's median time from the end
  of set-up until the child has exited;
- ``peak_rss_mb``: largest child peak RSS, from ``os.wait4``;
- ``failed_frac`` (summary line only; ``failed``/``attempted`` in the JSON):
  jobs that exited nonzero or failed the gate, over jobs run.

Both times leave out the short pauses in which the speed gauge is read,
are rescaled by it (see ``read_gauge``), and are printed next to the
measured ones.

Times are taken from the jobs that passed; a job that exits nonzero, is
killed at the run budget or fails the gate counts in ``failed_frac``.

``--trace 1`` runs every job untraced and then traced, and prints the
per-layer metrics of tracing.py plus the tracing overhead on wall time.
The last line of stdout is one JSON object; the exit code is 1 when a
report fails the gate or a job never passes, and 2 when the checkout holds
no program.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")

# A run must end within 180 s whatever the program does: no job starts
# after RUN_BUDGET_S, and a running job is killed there.
RUN_BUDGET_S = 160.0

# The speed gauge: a fixed loop of big-int, tuple and dict work like the
# program's, timed every GAUGE_EVERY_S while the running child is stopped.
# GAUGE_REF_S is a round figure for the loop's time on the 2-core host the
# benchmark was defined on (readings there ran 0.7-1.4 ms), so rescaled
# times read roughly as seconds on that host.
GAUGE_EVERY_S = 0.1
GAUGE_ITERS = 2_000
GAUGE_MASK = (1 << 256) - 1
GAUGE_REF_S = 0.0009

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Sample:
    setup_s: float | None
    job_s: float
    peak_rss_mb: float
    error: str | None
    # mean gauge loop time while the child ran
    speed_s: float = GAUGE_REF_S
    layers: dict | None = None

    def scaled(self, seconds: float) -> float:
        """``seconds`` as they would read at the gauge's reference speed."""
        return seconds * GAUGE_REF_S / self.speed_s


def child_env() -> dict:
    # caps at their defaults; bytecode cached as for an installed package
    dropped = ("PYTHONPATH", "PYTHONHOME", "PYTHONDONTWRITEBYTECODE")
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("KOSZULHH_") and k not in dropped
    }
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def gauge() -> float:
    """Seconds of one pass of the gauge loop."""
    t = time.perf_counter()
    table: dict = {}
    x = 1
    for i in range(GAUGE_ITERS):
        x = ((x << 1) ^ i) & GAUGE_MASK
        key = (i & 255, i >> 8)
        table[key] = table.get(key, 0) ^ x
    return time.perf_counter() - t


def read_gauge(pid: int, pauses: list, readings: list):
    """Stop the child, time the gauge on its CPU, and let the child go on.

    On a shared 2-vCPU virtual machine (Python 3.11) each vCPU's speed
    swings between two levels 1.7x apart, in phases of about a second and
    independently of the other vCPU; that moved whole runs by 20-30%.
    Gauge readings taken between jobs tracked it poorly; readings taken
    inside each job, on the job's CPU, let the job's time be rescaled by
    the speed it actually ran at.

    Appends the reading and the pause (start, end).  Returns the child's
    exit status and resource usage if it ended before it could be stopped,
    else (None, None).
    """
    start = time.monotonic()
    os.kill(pid, signal.SIGSTOP)
    _, status, usage = os.wait4(pid, os.WUNTRACED)
    if not os.WIFSTOPPED(status):
        return status, usage
    try:
        readings.append(gauge())
    finally:
        os.kill(pid, signal.SIGCONT)
    pauses.append((start, time.monotonic()))
    return None, None


def spawn(make_cmd, deadline: float):
    """Run a child to completion without threads, reading the speed gauge.

    make_cmd(fd) builds the command line given the number of a pipe the
    child may write side results to.  Returns (exit code, stdout, stderr,
    pipe bytes, the child's resource usage from os.wait4, start, end,
    pauses, gauge readings); the child is killed at ``deadline``, a
    time.monotonic value.
    """
    meta_r, meta_w = os.pipe()
    started = time.monotonic()
    try:
        proc = subprocess.Popen(
            make_cmd(meta_w),
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            pass_fds=(meta_w,),
        )
    finally:
        os.close(meta_w)
    streams = {proc.stdout.fileno(): [], proc.stderr.fileno(): [], meta_r: []}
    pauses: list[tuple[float, float]] = []
    readings: list[float] = []
    status = usage = None
    next_gauge = started + GAUGE_EVERY_S
    with selectors.DefaultSelector() as sel:
        for fd in streams:
            sel.register(fd, selectors.EVENT_READ)
        killed = False
        while sel.get_map():
            now = time.monotonic()
            running = status is None and not killed
            if running and now >= deadline:
                proc.kill()
                killed = True
                continue
            if running and now >= next_gauge:
                status, usage = read_gauge(proc.pid, pauses, readings)
                next_gauge = time.monotonic() + GAUGE_EVERY_S
                continue
            # a dead child's pipes reach end of file without a timeout
            timeout = max(0.0, min(deadline, next_gauge) - now) if running else None
            for key, _ in sel.select(timeout):
                data = os.read(key.fd, 1 << 16)
                if data:
                    streams[key.fd].append(data)
                else:
                    sel.unregister(key.fd)
    if status is None:
        _, status, usage = os.wait4(proc.pid, 0)
    ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    out, err = (b"".join(streams[f.fileno()]) for f in (proc.stdout, proc.stderr))
    proc.stdout.close()
    proc.stderr.close()
    os.close(meta_r)
    meta = b"".join(streams[meta_r])
    return proc.returncode, out, err, meta, usage, started, ended, pauses, readings


def paused(pauses, lo: float, hi: float) -> float:
    """Seconds of the pauses that fall within [lo, hi]."""
    return sum(max(0.0, min(b, hi) - max(a, lo)) for a, b in pauses)


def child_cmd(argv, traced: bool):
    return lambda fd: [sys.executable, CHILD, str(fd), "1" if traced else "0", *argv]


def run_job(job: workloads.Job, traced: bool, reference: dict, deadline: float) -> Sample:
    code, out, err, meta, usage, started, ended, pauses, readings = spawn(
        child_cmd(job.argv, traced), deadline
    )
    lines = meta.decode().splitlines()
    head = json.loads(lines[0]) if lines else None
    if head is not None and not head["module"].startswith(SRC + os.sep):
        raise SystemExit(f"koszulhh was imported from {head['module']}, not from {SRC}")
    imported = head["imported"] if head else started
    setup = imported - started - paused(pauses, started, imported) if head else None
    job_s = ended - imported - paused(pauses, imported, ended)
    # a child too short to be stopped is gauged right after it
    speed = statistics.fmean(readings) if readings else gauge()
    layers = json.loads(lines[1]) if traced and len(lines) > 1 else None
    error = None
    if code != 0:
        tail = err.decode(errors="replace").strip().splitlines()[-1:] or [""]
        error = f"exit code {code}: {tail[0]}"
    elif traced and layers is None:
        error = "traced child wrote no layer counters"
    else:
        try:
            report = json.loads(out)
        except json.JSONDecodeError:
            error = "report is not JSON"
        else:
            error = workloads.check_report(job, report, reference)
            if error is not None:
                error = "gate: " + error
    return Sample(setup, job_s, usage.ru_maxrss / 1024, error, speed, layers)


def warm_up(deadline: float) -> None:
    """Compile bytecode and fault in the interpreter once, untimed."""
    code, _, err, *_ = spawn(child_cmd(["--version"], False), deadline)
    if code != 0:
        raise SystemExit(f"the program does not start: {err.decode(errors='replace').strip()}")


def measure(jobs, seconds: float, traced: bool, reference: dict):
    """Closed loop over the job list.

    Returns per-job untraced and traced samples.
    """
    plain: list[list[Sample]] = [[] for _ in jobs]
    with_trace: list[list[Sample]] = [[] for _ in jobs]
    started = time.monotonic()
    soft = started + seconds
    hard = started + RUN_BUDGET_S
    i = 0
    while True:
        j = i % len(jobs)
        now = time.monotonic()
        if i >= len(jobs):
            # after one full pass, start a job only if it should end in time
            last = plain[j][-1]
            predicted = last.job_s + (last.setup_s or 0.0)
            if traced and with_trace[j]:
                predicted *= 2
            if now + predicted > soft:
                break
        if now >= hard:
            # unfinished first pass: the rest count as failed, not dropped
            for k in range(j, len(jobs)):
                if not plain[k]:
                    plain[k].append(Sample(None, 0.0, 0.0, "not started: run budget spent"))
            break
        plain[j].append(run_job(jobs[j], False, reference, hard))
        if traced:
            with_trace[j].append(run_job(jobs[j], True, reference, hard))
        i += 1
    return plain, with_trace


def passed(per_job: list[list[Sample]]) -> list[list[Sample]]:
    return [[s for s in samples if s.error is None] for samples in per_job]


def end_to_end(plain: list[list[Sample]], rescale: bool) -> dict[str, float]:
    """Times of the samples that passed; every job has one (see main).

    A failed job counts in ``failed``/``attempted`` only, so a job that dies
    early cannot make the run look faster.  Peak RSS is over every child
    that ran, so a failure can only raise it.
    """
    good = passed(plain)

    def seconds(s: Sample, t: float) -> float:
        return s.scaled(t) if rescale else t

    return {
        "setup_s": statistics.median(seconds(s, s.setup_s) for samples in good for s in samples),
        "wall_s": sum(statistics.median(seconds(s, s.job_s) for s in samples) for samples in good),
        "peak_rss_mb": max(s.peak_rss_mb for samples in plain for s in samples),
    }


def per_layer(plain, with_trace) -> dict[str, float]:
    """Per-layer metrics of the layers that ran, and the tracing overhead.

    Self times are rescaled by the speed gauge like the end-to-end times.
    """
    plain, with_trace = passed(plain), passed(with_trace)

    def value(s: Sample, key: str) -> float:
        v = s.layers.get(key, 0.0)
        return s.scaled(v) if key.endswith(".self_s") else v

    per_job = []
    for samples in with_trace:
        keys = {k for s in samples for k in s.layers}
        per_job.append({k: statistics.median(value(s, k) for s in samples) for k in keys})
    out = tracing.combine(per_job)
    base = sum(statistics.median(s.scaled(s.job_s) for s in samples) for samples in plain)
    traced = sum(statistics.median(s.scaled(s.job_s) for s in samples) for samples in with_trace)
    out["trace.overhead_frac"] = traced / base - 1.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "koszulhh", "cli.py")):
        print(f"error: no koszulhh sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    reference = workloads.load_reference()
    jobs = workloads.jobs_for(args.workload, args.seed)
    traced = args.trace == 1
    # one CPU for the jobs and the gauge, so the gauge sees the jobs' speed;
    # children inherit the affinity
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    warm_up(time.monotonic() + 60)
    plain, with_trace = measure(jobs, args.seconds, traced, reference)

    modes = [plain, with_trace] if traced else [plain]
    runs = [s for mode in modes for per_job in mode for s in per_job]
    failures = [(job, s.error) for mode in modes for job, per_job in zip(jobs, mode)
                for s in per_job if s.error]
    for job, error in failures:
        print(f"FAILED {job.label}: {error}", file=sys.stderr)
    # A wrong answer fails the run, and so does a job that never gave an
    # answer in some mode: the run then has no time to solution.
    unanswered = [job for mode in modes for job, good in zip(jobs, passed(mode)) if not good]
    for job in unanswered:
        print(f"FAILED {job.label}: no run of it passed", file=sys.stderr)
    if unanswered:
        print(json.dumps({"correct": False, "attempted": len(runs), "failed": len(failures), "metrics": {}}))
        return 1
    correct = not any(error.startswith("gate:") for _, error in failures)

    e2e = end_to_end(plain, True)
    raw = end_to_end(plain, False)
    reading = statistics.median(s.speed_s for samples in passed(plain) for s in samples)
    print(f"workload {args.workload}, seed {args.seed}: {len(jobs)} jobs, {len(runs)} runs")
    print(f"  gauge {reading * 1000:.4g} ms (reference {GAUGE_REF_S * 1000:g} ms)")
    for name, value in e2e.items():
        print(f"  {name:<12} {value:.6g} {E2E_UNITS[name]}  (measured {raw[name]:.6g})")
    print(f"  {'failed_frac':<12} {len(failures) / len(runs):.6g} ratio")
    if traced:
        layers = per_layer(plain, with_trace)
        for name, unit in tracing.PER_LAYER:
            shown = f"{layers[name]:.6g} {unit}" if name in layers else "not run"
            print(f"  {name:<40} {shown}")
        # BENCHMARK.json lists every layer for every workload; a layer that
        # does not run on this workload reads 0
        metrics = {n: {"value": layers.get(n, 0.0), "unit": u} for n, u in tracing.PER_LAYER}
    else:
        metrics = {n: {"value": v, "unit": E2E_UNITS[n]} for n, v in e2e.items()}
    result = {"correct": correct, "attempted": len(runs), "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
