"""Self-test of the benchmark itself.  From the repository root:

    python3 benchmark/selftest.py

1. A short run of each workload, untraced and traced, passes every job
   and prints exactly the metric names that BENCHMARK.json declares.
2. In a copy of the benchmark whose ``refs.json`` has the first job's
   reference output corrupted, a run still completes and reports the job
   as failed (ok_frac < 1, fail_frac > 0), which shows that the
   correctness gate can fail.
3. In a directory holding only BENCHMARK.json and the benchmark's files,
   the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from common import BENCH_DIR, OUT_DIR, ROOT, SRC, job_id
import workloads

SECONDS = "2"


def bench(*args, cwd=ROOT) -> tuple[int, list[str]]:
    res = subprocess.run(
        [sys.executable, "benchmark/run.py", "--seconds", SECONDS, *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return res.returncode, res.stdout.splitlines()


def copy_bench(name: str) -> Path:
    """A directory with only BENCHMARK.json and a copy of the benchmark's files."""
    root = OUT_DIR / name
    shutil.rmtree(root, ignore_errors=True)
    shutil.copytree(BENCH_DIR, root / "benchmark",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    return root


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: [m["name"] for m in spec["end_to_end"]],
        1: [m["name"] for m in spec["per_layer"]],
    }
    problems = []
    OUT_DIR.mkdir(exist_ok=True)

    for wl in workloads.WORKLOADS:
        for trace in (0, 1):
            code, lines = bench("--workload", wl, "--seed", "1", "--trace", str(trace))
            result = json.loads(lines[-1])
            if code or list(result["metrics"]) != declared[trace]:
                problems.append(f"{wl} trace={trace}: metric names differ from BENCHMARK.json")
            if result["failed"]:
                problems.append(f"{wl} trace={trace}: {result['failed']} failed jobs")

    corrupt = copy_bench("corrupt")
    (corrupt / "src").symlink_to(SRC)
    refs = json.loads((corrupt / "benchmark" / "refs.json").read_text())
    costs = {key: ref[3] for key, ref in refs["refs"].items()}
    n_rounds = workloads.rounds("sweep", float(SECONDS))
    first = job_id(workloads.job_list("sweep", 1, n_rounds, costs)[0])
    refs["refs"][first][1] = "0" * 16
    (corrupt / "benchmark" / "refs.json").write_text(json.dumps(refs))
    code, lines = bench("--workload", "sweep", "--seed", "1", cwd=corrupt)
    shutil.rmtree(corrupt)
    result = json.loads(lines[-1])
    context = json.loads(lines[-2])["context"]
    if code or result["failed"] < 1 or result["metrics"]["ok_frac"]["value"] >= 1:
        problems.append("a corrupted reference did not fail its job")
    if context["fail_frac"] <= 0:
        problems.append("a corrupted reference left fail_frac at 0")

    bare = copy_bench("bare")
    code, lines = bench("--workload", "sweep", "--seed", "1", cwd=bare)
    shutil.rmtree(bare)
    if code == 0 or any(line.startswith('{"correct"') for line in lines):
        problems.append("without the sources the benchmark did not fail")

    for line in problems:
        print(f"FAIL {line}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
