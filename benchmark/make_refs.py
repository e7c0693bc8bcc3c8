"""Derive the reference output of every catalogue job through a second route.

Run once from the repository root when the catalogues change:

    python3 benchmark/make_refs.py

It writes ``benchmark/refs.json``: for each job id the expected exit
code, a digest of the expected stdout bytes, the route that produced
them and the job's cost on its default route with cold caches, which
``workloads.py`` uses to rank the jobs of a stratum.  The cost is the
in-process run time, except for ``verify`` jobs: those are spawned as
the ``sweep`` workload runs them, fanned out to worker processes, and
timed spawn to exit, one at a time.  The default route's output must
equal the reference, or generation fails.

Wherever a route other than the job's default exists, that route makes
the reference, so the benchmark's correctness gate compares two
independent computations:

* ``cycle_cover`` -- the same command with ``--backend cycle_cover``, for
  Bareiss-default jobs whose DP window is at most ``DP_REF_WINDOW`` bits
  (wider windows are still below the DP's 16-bit ceiling, but at p = 64
  one job took 13 s at 9 bits and 43 s at 10 bits on a 2-CPU machine
  with Python 3.11, about 3x more per extra bit);
* ``bruteforce`` -- ``--backend bruteforce`` at p <= 10;
* ``bareiss`` -- ``--backend bareiss`` for counting-DP-default jobs;
* ``float_check`` -- no second exact route is affordable: the default
  output, with its polynomial checked by ``det_float_check`` and by the
  support and sign theorems;
* ``bareiss_abs`` -- ``growth`` rows rebuilt from the absolute
  coefficients of ``det_bareiss`` instead of the counting DP;
* ``sequential`` -- ``verify`` in-process with one worker instead of the
  spawned process fan-out;
* ``refusal`` -- must exit 3 with empty stdout.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import sys
import time
from functools import lru_cache

from common import (
    EXIT_UNSUPPORTED, OUT_DIR, REFS_PATH, digest, import_cli, job_id, run_in_process,
)
from run import spawn
import workloads

#: widest DP window for which the counting DP makes a phi/coeff reference
DP_REF_WINDOW = 8

ROUTES = {
    "cycle_cover": "same command with --backend cycle_cover",
    "bruteforce": "same command with --backend bruteforce",
    "bareiss": "same command with --backend bareiss",
    "float_check": "default route; polynomial checked by det_float_check "
    "and the support and sign theorems",
    "bareiss_abs": "growth rows rebuilt from |det_bareiss| coefficients",
    "sequential": "same verify command in-process with one worker, "
    "against the default spawned with worker processes",
    "refusal": "exit 3 with empty stdout",
}

_state = {}


def _init():
    _state["cli"] = import_cli()


def _opts(argv) -> dict[str, str]:
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}


@lru_cache(maxsize=64)
def _check_polynomial(p: int, q: int) -> None:
    """Float check plus the support and sign theorems on the default poly."""
    from tricirc import phi as phimod
    from tricirc.circulant import CirculantSpec, det_float_check

    poly = phimod.phi_polynomial(p, q)
    problems = []
    if not det_float_check(CirculantSpec(p, q), poly).passed:
        problems.append("float check failed")
    n_support = sum(
        phimod.support(p, q, r, s) for s in range(p + 1) for r in range(p + 1 - s)
    )
    if n_support != len(poly):
        problems.append(f"{len(poly)} terms, support theorem says {n_support}")
    for m, c in poly.items():
        if not phimod.support(p, q, m.r, m.s):
            problems.append(f"stray term x^{m.r} y^{m.s}")
        k = math.gcd(m.r, m.s, (m.r + m.s * q) // p)
        if (c > 0) != (k % 2 == 0):
            problems.append(f"sign of a({m.r},{m.s}) breaks the gcd rule")
    if problems:
        raise AssertionError(f"(p={p}, q={q}): {'; '.join(problems)}")


def _growth_csv(q: int, pmax: int) -> bytes:
    from tricirc.circulant import CirculantSpec, det_bareiss
    from tricirc.permanent import GrowthRow, growth_table_csv

    rows = []
    for p in range(max(3, q + 1), pmax + 1):
        gen = det_bareiss(CirculantSpec(p, q)).termwise_abs()
        d11, m, n = gen.evaluate(1, 1), gen.max_abs_coefficient(), len(gen)
        rows.append(GrowthRow(p, q, m, d11, n, m ** (1 / p), d11 <= m * n and m <= d11))
    return growth_table_csv(rows).encode()


def _canonical(argv) -> tuple[int, int]:
    from tricirc.circulant import CirculantSpec, reduce_theta

    o = _opts(argv)
    spec = CirculantSpec(int(o["p"]), int(o["q"]), int(o.get("t", 1)))
    canon = reduce_theta(spec).spec
    return canon.p, canon.q


def reference(argv) -> tuple[str, int, bytes]:
    """(route, exit code, stdout) of one job by a route other than its default."""
    from tricirc.phi import default_backend

    cli = _state["cli"]
    if argv in workloads.MUST_REFUSE:
        return "refusal", EXIT_UNSUPPORTED, b""
    cmd = argv[0]
    if cmd == "verify":
        return "sequential", *run_in_process(cli, argv)
    if cmd == "growth":
        o = _opts(argv)
        return "bareiss_abs", 0, _growth_csv(int(o["q"]), int(o["pmax"]))
    p, q = _canonical(argv)
    if p <= 10:
        route = "bruteforce"
    elif default_backend(p, q) == "cycle_cover":
        route = "bareiss"
    elif workloads.window_width(p, q) <= DP_REF_WINDOW or cmd == "permanent":
        route = "cycle_cover"
    else:
        _check_polynomial(p, q)
        return "float_check", None, None
    return route, *run_in_process(cli, argv + ("--backend", route))


def _group(jobs):
    """Time each job's default route cold, then derive and compare its reference."""
    from tricirc.circulant import cycle_cover_counts

    cli = _state["cli"]
    default = []
    for argv in jobs:
        if argv[0] == "verify":
            job = spawn(argv, workloads.WORKERS["sweep"])
            default.append((job.wall_s, job.code, job.stdout))
            continue
        cycle_cover_counts.cache_clear()
        t0 = time.perf_counter()
        code, out = run_in_process(cli, argv)
        default.append((time.perf_counter() - t0, code, out))
    rows = []
    for argv, (cost, code, out) in zip(jobs, default):
        route, ref_code, ref_out = reference(argv)
        if route == "float_check":
            ref_code, ref_out = code, out
        if (code, out) != (ref_code, ref_out):
            raise AssertionError(f"{job_id(argv)!r}: the default route differs from {route}")
        rows.append((job_id(argv), [ref_code, digest(ref_out), route, round(cost, 4)]))
    return rows


def main() -> int:
    # jobs on the same p go to one process, which derives each DP once
    groups: dict[tuple, set] = {}
    for wl in workloads.WORKLOADS:
        for jobs in workloads.catalogue(wl).values():
            for argv in jobs:
                key = (wl, _opts(argv).get("p") or argv[2])
                groups.setdefault(key, set()).add(argv)
    tasks = [sorted(g) for _, g in sorted(groups.items(), key=lambda kv: -len(kv[1]))]
    refs = {}

    def add(pairs):
        refs.update(pairs)
        print(f"{len(refs)} refs", file=sys.stderr, flush=True)

    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(os.cpu_count(), initializer=_init) as pool:
        for pairs in pool.imap_unordered(_group, [t for t in tasks if t[0][0] != "verify"]):
            add(pairs)
    # verify jobs fan out to worker processes themselves: time them alone
    OUT_DIR.mkdir(exist_ok=True)
    _init()
    for group in tasks:
        if group[0][0] == "verify":
            add(_group(group))
    with open(REFS_PATH, "w", encoding="utf-8") as fh:
        fh.write('{"routes": ' + json.dumps(ROUTES, sort_keys=True) + ',\n"refs": {\n')
        fh.write(",\n".join(f"{json.dumps(k)}: {json.dumps(refs[k])}" for k in sorted(refs)))
        fh.write("\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
