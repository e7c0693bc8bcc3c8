"""Replay every job of ``benchmark/refs.json`` in process against its recorded output.

Run it from the repository root (it is no test, so pytest does not
collect it)::

    PYTHONPATH=src python tests/refs_replay.py
    PYTHONPATH=src python tests/refs_replay.py --json digests.json
    PYTHONPATH=src python tests/refs_replay.py --stderr stderr.json
    PYTHONPATH=src python tests/refs_replay.py --lines

Each job runs through ``cli.run`` with one worker, as
``benchmark/common.py`` runs it.  Its exit code and the digest of its
stdout must equal the recorded ones; each job that differs is printed,
and the script then exits 1.

``--json FILE`` runs each job a second time with ``--format json`` and
writes {job: [exit code, digest]} to FILE, so that the JSON output of
two trees can be compared with ``cmp``.  ``--stderr FILE`` runs each job
once more, captures its stderr (which ``run_in_process`` discards) and
writes {job: [exit code, stderr digest]} to FILE, so that notes and
``error:`` lines can be compared the same way.  ``--lines`` runs the
replay and each ``demos/*.py`` under the line collector of
``tests/line_audit.py``, then lists the lines under ``src/tricirc`` that no job and no demo ran:
what the benchmark's workloads and the demos never reach, which the
tests cannot show, since they call everything.

It reads ``benchmark/`` and writes nothing there.
"""

import argparse
import contextlib
import io
import json
import os
import runpy
import sys
import time
from pathlib import Path

import line_audit

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # no cache file beside the benchmark's modules
sys.path.insert(0, str(ROOT / "benchmark"))
from common import WORKERS_ENV, digest, import_cli, load_refs, run_in_process  # noqa: E402


def as_json(argv: list[str]) -> list[str]:
    """The argv with its format, if it names one, replaced by ``--format json``."""
    if "--format" in argv:
        i = argv.index("--format")
        argv = argv[:i] + argv[i + 2:]
    return [*argv, "--format", "json"]


def run_for_stderr(cli, argv: list[str]) -> tuple[int, bytes]:
    """``cli.run(argv)`` with one worker; returns (exit code, stderr bytes)."""
    err = io.StringIO()
    os.environ[WORKERS_ENV] = "1"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return code, err.getvalue().encode()


def replay(refs: dict, json_digests: dict | None, stderr_digests: dict | None) -> list[str]:
    """Run every job; the ids of those whose exit code or digest differ."""
    cli = import_cli()
    wrong = []
    for job, (code, want, *_) in refs.items():
        argv = job.split()
        got, out = run_in_process(cli, argv)
        if (got, digest(out)) != (code, want):
            print(f"{job}: exit {got}, digest {digest(out)}; recorded {code}, {want}")
            wrong.append(job)
        if json_digests is not None:
            got, out = run_in_process(cli, as_json(argv))
            json_digests[job] = [got, digest(out)]
        if stderr_digests is not None:
            got, err = run_for_stderr(cli, argv)
            stderr_digests[job] = [got, digest(err)]
    return wrong


def run_demos() -> None:
    for demo in sorted((ROOT / "demos").glob("*.py")):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(demo), run_name="__main__")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--json", metavar="FILE", help="write each job's JSON digest")
    parser.add_argument("--stderr", metavar="FILE", help="write each job's stderr digest")
    parser.add_argument("--lines", action="store_true", help="list the lines no job ran")
    args = parser.parse_args()
    refs = load_refs()
    json_digests = None if args.json is None else {}
    stderr_digests = None if args.stderr is None else {}
    t0 = time.perf_counter()
    if args.lines:
        with line_audit.Collector() as collector:
            wrong = replay(refs, json_digests, stderr_digests)
            run_demos()
        total = line_audit.report(collector)
        print(f"# {total} lines never run by a job or a demo")
    else:
        wrong = replay(refs, json_digests, stderr_digests)
    for path, digests in ((args.json, json_digests), (args.stderr, stderr_digests)):
        if digests is not None:
            Path(path).write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    print(f"# {len(refs)} jobs, {len(wrong)} differ, {time.perf_counter() - t0:.0f} s")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
