"""The tricirc benchmark: CLI jobs end to end, and a traced run per layer.

Usage, from the repository root (stdlib only, nothing to build):

    python3 benchmark/run.py --workload polynomial --seed 1 --seconds 30 --trace 0

``--workload`` is ``polynomial``, ``counting``, ``sweep`` or ``all``.  The
seed fixes the job list (see ``workloads.py``), and ``--seconds`` its
length: as many rounds of jobs as lasted about that long at the commit
that defined the benchmark.  The whole list runs, so two commits run
the same jobs; a run that passes ``run_limit(--seconds)`` stops and
counts the jobs it did not run as failed.

``--trace 0`` runs the job list closed loop from one client: each job is
a fresh ``python -m tricirc ...`` process and the next starts when it
has exited.  Every job's exit code and stdout bytes are checked against
``refs.json``; a mismatch is a failed job, counted and reported, and the
run goes on.  Between jobs, spread over the run, the CLI is started
``SETUP_REPS`` times on a request that computes nothing (``--help``);
the median of those is ``setup_s``.  It prints the end-to-end metrics.

The host's speed drifts by up to half, in phases from a few seconds to
many minutes, and CPU time drifts with wall time.  So before every spawn
the benchmark times a fixed piece of pure-Python work (``calibrate``),
and every wall time is scaled by ``CAL_REF_S`` over the median of the
``CAL_WINDOW`` calibrations nearest to it: the timings read as seconds
on a host as fast as the one that defined the benchmark.  The unscaled
ones go to the context line.  The calibration runs in this process
while no job runs, so the code under test cannot change it.

``--trace 1`` spawns the jobs of a list sized for a share of
``--seconds`` the same way (with one worker), then runs exactly those
jobs in-process through ``tricirc.cli.run`` twice: untraced, then with
every layer wrapped by ``tracer.py``.  The cache of
``cycle_cover_counts`` is cleared before each in-process job, so every
job starts cold as a fresh process does.
Spans go to ``benchmark/out/`` and are read back to compute the
per-layer metrics.

The last stdout line is the result object; the line before it holds
the run's context (CPU count, Python, commit, seed, workers, job counts,
tail percentile).  A readable table goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

from common import (
    OUT_DIR, ROOT, SRC, WORKERS_ENV, digest, import_cli, job_id, load_refs,
    run_in_process,
)
import tracer as tracing
import workloads

SETUP_REPS = 21
SETUP_ARGV = ("--help",)

#: median time of ``calibrate`` on the host that defined the benchmark
#: (2 CPUs, Python 3.11.7); timings are scaled to a host this fast
CAL_REF_S = 0.015

#: calibrations, nearest in time, whose median scales one wall time
CAL_WINDOW = 7

#: a job still running after this long is killed and counted as failed
JOB_TIMEOUT_S = 30.0

#: share of --seconds that a traced run's job list is sized for; the two
#: in-process passes over the same jobs take roughly the rest
TRACE_SPAWN_SHARE = 0.4

#: (name, unit) of the end-to-end metrics, in BENCHMARK.json order
END_TO_END = (
    ("setup_s", "s"),
    ("job_s.p50", "s"),
    ("job_s.tail", "s"),
    ("jobs_per_s", "1/s"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
)


def _stat(layer, field, unit):
    return (f"{layer}.{field}", unit, lambda agg, c: agg.get(layer, {}).get(field, 0))


def _counter(name, unit):
    return (name, unit, lambda agg, c: c[name])


def _hit_ratio(agg, c):
    hits = c["circulant.cycle_cover_counts.hits"]
    total = hits + c["circulant.cycle_cover_counts.misses"]
    return hits / total if total else 0.0


#: (name, unit, value from (layer aggregates, counters)) of the per-layer
#: metrics; cli.* and trace.* are filled in from the run's own timings
PER_LAYER = (
    ("cli.run_s", "s", None),
    ("cli.spawn_s", "s", None),
    _stat("phi.phi_polynomial", "calls", "count"),
    _stat("phi.phi_polynomial", "busy_s", "s"),
    _stat("circulant.det_bareiss", "calls", "count"),
    _stat("circulant.det_bareiss", "busy_s", "s"),
    _stat("circulant.det_bareiss", "self_s", "s"),
    _stat("bipoly.mul", "calls", "count"),
    _stat("bipoly.mul", "busy_s", "s"),
    _counter("bipoly.mul.terms_out", "count"),
    _stat("bipoly.exact_div", "calls", "count"),
    _stat("bipoly.exact_div", "busy_s", "s"),
    _counter("bipoly.peak_coeff_bits", "bits"),
    _stat("circulant.cycle_cover_counts", "calls", "count"),
    _stat("circulant.cycle_cover_counts", "busy_s", "s"),
    _counter("circulant.cycle_cover_counts.hits", "count"),
    _counter("circulant.cycle_cover_counts.misses", "count"),
    ("circulant.cycle_cover_counts.hit_ratio", "ratio", _hit_ratio),
    _stat("circulant.det_bruteforce", "calls", "count"),
    _stat("circulant.det_bruteforce", "busy_s", "s"),
    _stat("permclass.enumerate_by_profile", "calls", "count"),
    _stat("permclass.enumerate_by_profile", "busy_s", "s"),
    _stat("permclass.construct_witness", "calls", "count"),
    _stat("permclass.construct_witness", "busy_s", "s"),
    *(
        _stat(f"verify.run_case.{kind}", field, unit)
        for kind in ("support", "sign", "cycle", "witness", "permanent", "prime", "lemmas")
        for field, unit in (("calls", "count"), ("busy_s", "s"), ("max_s", "s"))
    ),
    _stat("permanent.permanent_ryser", "calls", "count"),
    _stat("permanent.permanent_ryser", "busy_s", "s"),
    _stat("permanent.bounds_report", "busy_s", "s"),
    _stat("permanent.growth_table", "busy_s", "s"),
    ("trace.overhead_frac", "ratio", None),
)


@dataclass
class Job:
    """One executed job: its command, timing, resources and verdict."""

    argv: tuple[str, ...]
    wall_s: float
    code: int
    stdout: bytes
    rss_kb: int = 0
    why: str = ""
    ok: bool = False
    cal_s: float = 0.0
    #: wall time scaled to the reference host speed, see ``scale``
    scaled_s: float = 0.0


def check(job: Job, refs: dict) -> Job:
    """Compare exit code and stdout bytes with the stored reference."""
    ref = refs.get(job_id(job.argv))
    if ref is None:
        job.why = job.why or "no reference output"
    elif job.code != ref[0]:
        job.why = job.why or f"exit {job.code}, expected {ref[0]}"
    elif digest(job.stdout) != ref[1]:
        job.why = "stdout differs from the reference"
    else:
        job.ok = True
    return job


def spawn(argv, workers: int) -> Job:
    """Run ``python -m tricirc argv`` to exit; wall time and its own peak RSS."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env[WORKERS_ENV] = str(workers)
    with tempfile.TemporaryFile(dir=OUT_DIR) as out, tempfile.TemporaryFile(dir=OUT_DIR) as err:
        done = threading.Event()
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "tricirc", *argv], cwd=ROOT, env=env, stdout=out, stderr=err
        )
        timer = threading.Timer(JOB_TIMEOUT_S, lambda: done.is_set() or proc.kill())
        timer.start()
        try:
            # wait4 gives this process's own rusage (and that of the workers
            # it reaped), unlike RUSAGE_CHILDREN's running maximum
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            done.set()
            timer.cancel()
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    why = ""
    if wall >= JOB_TIMEOUT_S:
        why = f"killed after {JOB_TIMEOUT_S:.0f} s"
    elif proc.returncode and stderr:
        why = stderr.decode(errors="replace").strip().splitlines()[-1][:200]
    return Job(argv, wall, proc.returncode, stdout, usage.ru_maxrss, why)


def calibrate() -> float:
    """Time a fixed piece of pure-Python work: big-integer products summed
    into a dict and a small-integer loop, as the library's kernels do."""
    t0 = perf_counter()
    big, acc = 3 ** 300, {}
    for i in range(30000):
        key = i * 7919 % 509
        acc[key] = acc.get(key, 0) + big * i
    total = 0
    for i in range(100000):
        total += i * i % 7
    return perf_counter() - t0


def scale(seq: list[Job]) -> None:
    """Set each job's ``scaled_s`` from its wall time and the calibrations
    nearest to it; ``seq`` holds the jobs in the order they ran."""
    cals = [job.cal_s for job in seq]
    for n, job in enumerate(seq):
        lo = max(0, min(n - CAL_WINDOW // 2, len(seq) - CAL_WINDOW))
        job.scaled_s = job.wall_s * CAL_REF_S / statistics.median(cals[lo:lo + CAL_WINDOW])


def setup_probe() -> Job:
    """Spawn ``tricirc --help``, which computes nothing."""
    job = spawn(SETUP_ARGV, 1)
    job.ok = job.code == 0 and job.stdout.startswith(b"usage: tricirc")
    return job


def run_limit(seconds: float) -> float:
    """Time after which a run stops, so that it ends within 180 s."""
    return min(3 * seconds + 30, 120.0)


def closed_loop(argvs, workers: int, refs: dict, limit_s: float, probes: int = 0):
    """Spawn the jobs one after another, with ``probes`` setup probes spread between.

    Every spawn is preceded by a calibration, and every job is scaled
    (see ``scale``).  Stops early once ``limit_s`` has passed.  Returns
    (jobs run, probes).
    """
    setup_probe()  # compiles bytecode on a fresh checkout
    every = max(1, len(argvs) // probes) if probes else 0
    done, setup, seq = [], [], []

    def timed(spawn_one) -> Job:
        cal_s = calibrate()
        job = spawn_one()
        job.cal_s = cal_s
        seq.append(job)
        return job

    t0 = perf_counter()
    for i, argv in enumerate(argvs):
        if perf_counter() - t0 >= limit_s:
            break
        if every and i % every == 0 and len(setup) < probes:
            setup.append(timed(setup_probe))
        done.append(check(timed(lambda: spawn(argv, workers)), refs))
    while len(setup) < probes and perf_counter() - t0 < limit_s:
        setup.append(timed(setup_probe))
    scale(seq)
    return done, setup


def tail(walls: list[float]) -> tuple[float, int]:
    """(value, percentile): the highest whole percentile with >= 10 jobs beyond it."""
    n = len(walls)
    ordered = sorted(walls)
    if n <= 10:
        return ordered[-1], 100
    pct = 100 * (n - 10) // n
    return ordered[math.ceil(pct * n / 100) - 1], pct


def in_process(cli, jobs: list[Job], refs, cache) -> tuple[list[float], list[float], tracing.Tracer]:
    """Run each job through ``cli.run``, untraced and then traced, cold each time.

    The two runs of one job are back to back, so a drift in machine load
    between them stays small.  A job whose output differs here fails.
    Returns (untraced run times, traced run times, tracer).
    """
    tr = tracing.Tracer()
    plain, traced = [], []
    for i, job in enumerate(jobs):
        tr.job = i
        for times, traced_pass in ((plain, False), (traced, True)):
            cache.cache_clear()
            undo = tracing.install(tr) if traced_pass else []
            try:
                t0 = perf_counter()
                code, out = run_in_process(cli, job.argv)
                times.append(perf_counter() - t0)
            finally:
                tracing.uninstall(undo)
            if traced_pass:
                tr.count_cache(cache.cache_info())
            again = check(Job(job.argv, 0.0, code, out), refs)
            if job.ok and not again.ok:
                job.ok, job.why = False, f"in-process: {again.why}"
    return plain, traced, tr


def git_commit() -> str:
    if not (ROOT / ".git").exists():  # git would search the parent directories
        return "unknown"
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def source_digest() -> str:
    """Digest of the package sources, which identifies the code without git."""
    parts = [
        f"{path.relative_to(SRC)}\0".encode() + path.read_bytes()
        for path in sorted((SRC / "tricirc").rglob("*.py"))
    ]
    return digest(b"\0".join(parts))


def context(args, workers, argvs, jobs: list[Job]) -> dict:
    failures = [f"{job_id(j.argv)}: {j.why}" for j in jobs if not j.ok][:10]
    if len(jobs) < len(argvs):
        failures.insert(0, f"{len(argvs) - len(jobs)} jobs not run: the run passed "
                        "its time limit")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "src_digest": source_digest(),
        WORKERS_ENV: workers,
        "jobs": len(jobs),
        "jobs_listed": len(argvs),
        "jobs_by_command": dict(sorted(Counter(j.argv[0] for j in jobs).items())),
        "caches": "cold: a fresh process per job; in-process jobs clear "
        "cycle_cover_counts first",
        "failures": failures,
    }


def job_metrics(jobs: list[Job], setup: list[Job], attr: str) -> tuple[dict, int]:
    """The timing metrics from each job's ``attr`` time, and the tail percentile."""
    walls = [getattr(job, attr) for job in jobs]
    tail_s, pct = tail(walls)
    return {
        "setup_s": statistics.median(getattr(job, attr) for job in setup),
        "job_s.p50": statistics.median(walls),
        "job_s.tail": tail_s,
        "jobs_per_s": len(walls) / sum(walls),
    }, pct


def run_end_to_end(args, refs) -> tuple[dict, dict, int, int]:
    workers = workloads.WORKERS[args.workload]
    argvs = _job_list(args, refs, args.seconds)
    jobs, setup = closed_loop(argvs, workers, refs, run_limit(args.seconds), SETUP_REPS)
    failed = len(argvs) - sum(j.ok for j in jobs)
    metrics, pct = job_metrics(jobs, setup, "scaled_s")
    metrics["ok_frac"] = 1 - failed / len(argvs)
    metrics["peak_rss_mb"] = max(j.rss_kb for j in jobs) / 1024
    unscaled, _ = job_metrics(jobs, setup, "wall_s")
    cals = [j.cal_s for j in (*jobs, *setup)]
    bad_setup = sum(not j.ok for j in setup)
    ctx = context(args, workers, argvs, jobs)
    ctx.update(fail_frac=failed / len(argvs), tail_percentile=pct, tail_samples=len(jobs),
               setup_reps=len(setup), setup_failures=bad_setup, unscaled=unscaled,
               calibrate_s={"median": statistics.median(cals), "min": min(cals),
                            "max": max(cals), "reference": CAL_REF_S})
    return metrics, ctx, len(argvs) + len(setup), failed + bad_setup


def run_traced(args, refs) -> tuple[dict, dict, int, int]:
    argvs = _job_list(args, refs, args.seconds * TRACE_SPAWN_SHARE)
    jobs, _ = closed_loop(argvs, 1, refs, run_limit(args.seconds) * TRACE_SPAWN_SHARE)
    cli = import_cli()
    from tricirc.circulant import cycle_cover_counts

    plain, traced, tr = in_process(cli, jobs, refs, cycle_cover_counts)
    ctx = context(args, 1, argvs, jobs)
    spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
    ctx["spans"] = str(spans_path.relative_to(ROOT))
    tr.dump(spans_path, ctx)
    counters, agg = tracing.summarize(spans_path)
    run_s = sum(plain)
    own = {
        "cli.run_s": run_s,
        "cli.spawn_s": sum(j.wall_s for j in jobs) - run_s,
        "trace.overhead_frac": sum(traced) / run_s - 1,
    }
    metrics = {
        name: own[name] if value is None else value(agg, counters)
        for name, _unit, value in PER_LAYER
    }
    return metrics, ctx, len(argvs), len(argvs) - sum(j.ok for j in jobs)


def _job_list(args, refs, seconds: float) -> list[tuple[str, ...]]:
    costs = {key: ref[3] for key, ref in refs.items()}
    n_rounds = workloads.rounds(args.workload, seconds)
    try:
        return workloads.job_list(args.workload, args.seed, n_rounds, costs)
    except KeyError as exc:
        sys.exit(f"error: no reference for job {exc}; run benchmark/make_refs.py")


def report(args, metrics, ctx, attempted, failed) -> None:
    units = dict(END_TO_END) | {name: unit for name, unit, _ in PER_LAYER}
    print(f"== {args.workload} seed={args.seed} trace={args.trace} jobs={ctx['jobs']} "
          f"attempted={attempted} failed={failed}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}", file=sys.stderr)
    if not args.trace:
        print(f"  {'fail_frac':<44} {ctx['fail_frac']:>14.6g} frac", file=sys.stderr)
        print(f"  tail = p{ctx['tail_percentile']} of {ctx['tail_samples']} jobs",
              file=sys.stderr)
    for line in ctx["failures"]:
        print(f"  FAILED {line}", file=sys.stderr)
    print(json.dumps({"context": ctx}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))


def main() -> int:
    ap = argparse.ArgumentParser(description="tricirc benchmark")
    ap.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "tricirc" / "cli.py").is_file():
        print(f"error: no tricirc sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    refs = load_refs()
    OUT_DIR.mkdir(exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        args.workload = name
        run = run_traced if args.trace else run_end_to_end
        report(args, *run(args, refs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
