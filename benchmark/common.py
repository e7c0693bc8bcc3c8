"""Paths, reference digests and in-process CLI calls shared by the scripts."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFS_PATH = BENCH_DIR / "refs.json"
OUT_DIR = BENCH_DIR / "out"

WORKERS_ENV = "TRICIRC_WORKERS"
EXIT_UNSUPPORTED = 3


def job_id(argv) -> str:
    return " ".join(argv)


def digest(stdout: bytes) -> str:
    """Short content digest of a job's stdout bytes, as stored in refs.json."""
    return hashlib.sha256(stdout).hexdigest()[:16]


def load_refs() -> dict[str, list]:
    """job id -> [exit code, stdout digest, route, cost in seconds]."""
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)["refs"]


def import_cli():
    """Import ``tricirc.cli`` from this checkout's ``src``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from tricirc import cli

    return cli


def run_in_process(cli, argv) -> tuple[int, bytes]:
    """``cli.run(argv)`` with one worker; returns (exit code, stdout bytes)."""
    out = io.StringIO()
    os.environ[WORKERS_ENV] = "1"
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(list(argv))
    return code, out.getvalue().encode()
