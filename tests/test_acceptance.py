"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is pinned here; nothing is deferred to calibration.
The exact-arithmetic criteria use no tolerance at all, the two CLI
latency budgets are 1 second per invocation, and the oracle sweep
budget is 60 seconds.
"""

import json
import math
import os
import subprocess
import sys
import time
from math import factorial
from pathlib import Path

import pytest

from tricirc.circulant import det_bareiss, det_bruteforce, det_cycle_cover
from tricirc.phi import CirculantSpec, det_newton
from tricirc.permanent import bounds_report, permanent_generating, permanent_ryser
from tricirc.permclass import (
    PermClassKey,
    construct_witness,
    displacement_profile,
    enumerate_by_profile,
    predict_structure,
)
from tricirc.phi import phi_polynomial, primality_check, support, trial_division
from tricirc.verify import run_suite

GOLDEN = Path(__file__).resolve().parent / "golden"


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, f"criterion {num} ({name}): {detail}"


def _cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "tricirc", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ),
    )


@pytest.fixture(scope="session")
def oracle_sweep():
    """All four exact backends for 3 <= p <= 9, 2 <= q <= p-1, with timing."""
    t0 = time.perf_counter()
    polys = {}
    for p in range(3, 10):
        for q in range(2, p):
            spec = CirculantSpec(p, q)
            polys[(p, q)] = {
                "newton": det_newton(spec),
                "bareiss": det_bareiss(spec),
                "cycle_cover": det_cycle_cover(spec),
                "bruteforce": det_bruteforce(spec),
            }
    return polys, time.perf_counter() - t0


@pytest.fixture(scope="session")
def dp_tail():
    """Counting-DP polynomials for 10 <= p <= 20, q <= 8."""
    return {
        (p, q): det_cycle_cover(CirculantSpec(p, q))
        for p in range(10, 21)
        for q in range(2, min(9, p))
    }


def test_criterion_01_golden_polynomials():
    budget = 1.0
    results = []
    for args, golden in (
        (("phi", "--p", "8", "--q", "3"), "phi_8_3.txt"),
        (("phi", "--p", "5", "--q", "3"), "phi_5_3.txt"),
    ):
        t0 = time.perf_counter()
        res = _cli(*args)
        dt = time.perf_counter() - t0
        byte_exact = res.stdout == (GOLDEN / golden).read_text()
        results.append((res.returncode == 0, byte_exact, dt < budget, dt))
    ok = all(a and b and c for a, b, c, _ in results)
    times = ", ".join(f"{dt:.2f}s" for _, _, _, dt in results)
    _report(1, "golden polynomials byte-exact via CLI", ok, f"runtimes {times}")


def test_criterion_02_oracle_equivalence(oracle_sweep):
    polys, elapsed = oracle_sweep
    mismatches = [
        pq
        for pq, backends in polys.items()
        if not (
            backends["newton"] == backends["bareiss"]
            == backends["cycle_cover"] == backends["bruteforce"]
        )
    ]
    ok = not mismatches and elapsed < 60.0
    _report(
        2,
        "backend equivalence over 3<=p<=9, all q",
        ok,
        f"{len(polys)} specs, {len(mismatches)} mismatches, sweep {elapsed:.1f}s < 60s",
    )


def test_criterion_03_support_theorem(oracle_sweep, dp_tail):
    polys = {pq: b["bruteforce"] for pq, b in oracle_sweep[0].items()}
    polys.update(dp_tail)
    bad = []
    checks = 0
    for (p, q), poly in polys.items():
        for r in range(p + 1):
            for s in range(p + 1):
                checks += 1
                if support(p, q, r, s) != (poly.coefficient(r, s) != 0):
                    bad.append((p, q, r, s))
    ok = not bad
    _report(
        3,
        "support iff p | r+sq (brute p<=9; DP p<=20, q<=8)",
        ok,
        f"{checks} profile checks, counterexamples {bad[:3]}",
    )


def test_criterion_04_sign_theorem(oracle_sweep, dp_tail):
    polys = [(pq, poly) for pq, b in oracle_sweep[0].items() for poly in b.values()]
    polys += list(dp_tail.items())
    bad = []
    terms = 0
    for (p, q), poly in polys:
        for m, c in poly.items():
            terms += 1
            k = math.gcd(m.r, m.s, (m.r + m.s * q) // p)
            if (c > 0) != (k % 2 == 0):
                bad.append((p, q, m.r, m.s, c))
    ok = not bad
    _report(
        4,
        "sign equals (-1)^gcd(r,s,ell) on every computed term",
        ok,
        f"{terms} terms, counterexamples {bad[:3]}",
    )


def test_criterion_05_counts_and_cycle_type(oracle_sweep):
    bad = []
    classes_checked = 0
    for (p, q), backends in oracle_sweep[0].items():
        poly = backends["bruteforce"]
        classes = enumerate_by_profile(p, q)
        supported = {
            (r, s)
            for r in range(p + 1)
            for s in range(p + 1 - r)
            if support(p, q, r, s)
        }
        if set(classes) != supported:
            bad.append((p, q, "support/emptiness mismatch"))
        for (r, s), members in classes.items():
            classes_checked += 1
            if abs(poly.coefficient(r, s)) != len(members):
                bad.append((p, q, r, s, "count"))
                continue
            if (r, s) == (0, 0):
                continue
            rep = predict_structure(PermClassKey(p, q, r, s))
            want_type = [sum(rep.cycles_each)] * rep.k
            for sigma in members:
                cycle_type = sorted(len(c) for c in sigma.cycles())
                if cycle_type != want_type or sigma.sign() != rep.sign:
                    bad.append((p, q, r, s, sigma.one_line()))
                    break
    five = enumerate_by_profile(5, 3)[(2, 1)]
    expected = [
        (1, 2, 4, 5, 3), (1, 3, 4, 2, 5), (2, 3, 1, 4, 5),
        (2, 5, 3, 4, 1), (4, 2, 3, 5, 1),
    ]
    if [m.images for m in five] != expected:
        bad.append(("T_(5,3)(2,1) wrong", five))
    ok = not bad
    _report(
        5,
        "class sizes = |a(r,s)|, uniform cycle type and sign",
        ok,
        f"{classes_checked} classes, problems {bad[:2]}",
    )


def test_criterion_06_witness_construction():
    res = run_suite("witness", p_max=30)
    # the worked instance: three cycles walked from 1, 5 and 9, each by
    # the word of the path to (2, 3), east -> 1 and north -> q = 5
    sigma = construct_witness(PermClassKey(17, 5, 6, 9))
    example_ok = (
        displacement_profile(sigma, 17, 5) == (6, 9, 2)
        and len(sigma.cycles()) == 3
    )
    for start in (1, 5, 9):
        walk = [start]
        for _ in range(5):
            walk.append(sigma.images[walk[-1] - 1])
        steps = tuple((b - a) % 17 for a, b in zip(walk, walk[1:]))
        example_ok = example_ok and walk[-1] == start and steps == (1, 5, 5, 1, 5)
    ok = res.passed and example_ok
    _report(
        6,
        "witnesses land in their class with k cycles (p <= 30)",
        ok,
        f"{res.cases} classes, failures {res.failures}, "
        f"worked instance {'ok' if example_ok else 'BAD'}; "
        f"counterexample {res.first_counterexample}",
    )


def test_criterion_07_permanent_equals_abs_sum():
    bad = []
    cases = 0
    for p in range(3, 17):
        for q in range(2, p):
            cases += 1
            ry = permanent_ryser(p, q)
            dp = permanent_generating(p, q).evaluate(1, 1)
            ab = phi_polynomial(p, q, "bareiss").abs_coefficient_sum()
            if not ry == dp == ab:
                bad.append((p, q, ry, dp, ab))
    pinned = permanent_ryser(5, 3) == 13 and permanent_ryser(8, 3) == 33
    ok = not bad and pinned
    _report(
        7,
        "Ryser = DP(1,1) = sum|a| for p <= 16, all q",
        ok,
        f"{cases} pairs, D(1,1) pinned 13/33 {'ok' if pinned else 'BAD'}, "
        f"mismatches {bad[:2]}",
    )


def test_criterion_08_exact_growth_bounds():
    pairs = [(p, q) for p in range(3, 17) for q in range(2, p)]
    pairs += [(p, q) for p in range(17, 25) for q in (2, 5)]
    bad = []
    for p, q in pairs:
        rep = bounds_report(p, q)
        lower = 3**p * factorial(p) <= rep.d11 * p**p
        upper = rep.d11**3 <= 6**p
        if not (lower and upper and rep.lower_ok and rep.upper_ok):
            bad.append((p, q))
    ok = not bad
    _report(
        8,
        "3^p p! <= d11 p^p and d11^3 <= 6^p for p <= 24",
        ok,
        f"{len(pairs)} pairs, violations {bad[:3]}",
    )


def test_criterion_09_primality_remark():
    bad = [
        p
        for p in range(3, 41)
        if primality_check(p) != trial_division(p)
    ]
    ok = not bad
    _report(
        9,
        "congruence primality matches trial division, 3 <= p <= 40",
        ok,
        f"38 values, disagreements {bad}",
    )


def test_criterion_10_lemma_property_suites():
    res = run_suite("lemmas", cases=10000)
    ok = res.passed and res.cases == 30000
    _report(
        10,
        "cyclic order, path bound and divisibility gap, 10k cases each",
        ok,
        f"{res.cases} randomized cases, failures {res.failures}; "
        f"{res.first_counterexample or 'no counterexample'}",
    )
