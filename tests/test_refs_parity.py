"""CLI output against the benchmark's recorded references, in-process.

``benchmark/refs.json`` maps each benchmark job (a CLI argument line) to
its exit code and the first 16 hex digits of the sha256 of its stdout,
each derived by a second route.  A fixed sample runs here through
``cli.run``: every refusal, every 32nd job of each (command, route)
group other than ``verify``, and the cheapest job of each ``verify``
suite whose recorded cost is under VERIFY_COST_S, which every suite's
cheapest job is (the sign, cycle and lemmas ones take about 0.6-0.7 s
each in-process).
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from tricirc import circulant
from tricirc import cli as climod

REFS = Path(__file__).resolve().parent.parent / "benchmark" / "refs.json"

#: one job in this many of each non-verify (command, route) group runs
STRIDE = 32

#: verify suites whose cheapest job's recorded cost (s) is under this run
VERIFY_COST_S = 0.7


def _sample() -> list[tuple[str, int, str]]:
    refs = json.loads(REFS.read_text())["refs"]
    groups: dict[tuple, list] = {}
    for job, (code, digest, route, cost) in sorted(refs.items()):
        words = job.split()
        if code != 0:
            key = ("refusal", job)
        elif words[0] == "verify":
            key = ("verify", words[2])
        else:
            key = (words[0], route)
        groups.setdefault(key, []).append((cost, job, code, digest))
    out = []
    for (kind, _), jobs in sorted(groups.items()):
        if kind == "verify":
            jobs = [min(jobs)] if min(jobs)[0] < VERIFY_COST_S else []
        for _, job, code, digest in jobs[::STRIDE]:
            out.append((job, code, digest))
    return out


SAMPLE = _sample()


def test_sample_covers_every_command_and_refusal():
    refs = json.loads(REFS.read_text())["refs"]
    commands = {job.split()[0] for job in refs}
    assert {job.split()[0] for job, _, _ in SAMPLE} == commands
    suites = {job.split()[2] for job in refs if job.startswith("verify")}
    sampled = {job.split()[2] for job, _, _ in SAMPLE if job.startswith("verify")}
    assert sampled == suites
    refusals = {job for job, (code, *_) in refs.items() if code != 0}
    assert refusals <= {job for job, _, _ in SAMPLE}


def test_every_catalogue_growth_table_is_within_the_budget(monkeypatch):
    # the walk is stubbed: only the table's price is computed
    monkeypatch.setattr(
        circulant, "_cover_count_rows", lambda q, p_lo, p_hi: [{}] * (p_hi - p_lo + 1)
    )
    refs = json.loads(REFS.read_text())["refs"]
    for job, (code, *_) in refs.items():
        words = job.split()
        if words[0] == "growth" and code == 0:
            q, p_max = int(words[2]), int(words[4])
            circulant.cover_count_rows(q, max(3, q + 1), p_max)


@pytest.mark.parametrize(
    "job, code, digest",
    SAMPLE,
    ids=[job.replace("--", "").replace(" ", "-") for job, _, _ in SAMPLE],
)
def test_job_matches_reference(job, code, digest, monkeypatch):
    monkeypatch.setenv(climod.WORKERS_ENV, "1")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        got = climod.run(job.split())
    assert got == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest()[:16] == digest
