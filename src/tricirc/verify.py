"""Named verification suites sweeping the structure theorems.

Each suite turns one theorem (or a family of lemmas) into a battery of
machine checks against independent oracles:

* ``support``   -- nonzero coefficients are exactly the divisible profiles;
* ``sign``      -- every term obeys the gcd parity sign rule, and the
                   exact backends agree: Newton's identities with at
                   least one other route in every case;
* ``cycle``     -- class members share one cycle type and one sign, and
                   class sizes match coefficient magnitudes;
* ``witness``   -- the constructed member lands in its class with the
                   predicted cycle structure;
* ``permanent`` -- Ryser, the unsigned DP and the signed polynomial
                   agree, and the two-sided bounds hold;
* ``prime``     -- the binomial congruence matches trial division;
* ``lemmas``    -- randomized checks of cyclic-order preservation, the
                   lattice-path bound and the divisibility gap.

Every case is pure.  :func:`run_suite` runs them in order, or fans them
out to worker processes when asked for more than one worker, and merges
the outcomes in case order, so the result is identical for any worker
count.
"""

from __future__ import annotations

import math
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

from . import phi as phimod
from .bipoly import Monomial
from .circulant import (
    BAREISS_LIMIT,
    DP_BUDGET,
    NEWTON_LIMIT,
    CirculantSpec,
    check_dp_budget,
    det_bareiss,
    det_bruteforce,
    det_cycle_cover,
    det_newton,
    dp_cost,
)
from .errors import TooLarge
from .permanent import RYSER_LIMIT, bounds_report, permanent_ryser
from .permclass import (
    PermClassKey,
    build_path,
    construct_witness,
    cyclic_order,
    displacement_profile,
    enumerate_by_profile,
    path_bound_check,
    predict_structure,
    rotate,
)

SUITES = ("support", "sign", "cycle", "witness", "permanent", "prime", "lemmas")

DEFAULT_PMAX = {
    "support": 9,
    "sign": 9,
    "cycle": 9,
    "witness": 30,
    "permanent": 12,
    "prime": 40,
}

#: largest p at which the ``permanent`` suite also checks Ryser's
#: expansion against the DP and the signed polynomial (used here only:
#: ``bounds_report`` takes d11 from the DP at every p)
RYSER_DEFAULT_CROSSCHECK = 20

DEFAULT_CASES = 10000
DEFAULT_SEED = 90437

#: lemma batteries are split into this many fixed chunks so results do
#: not depend on how chunks are assigned to workers
LEMMA_CHUNKS = 32


@dataclass(frozen=True)
class CaseOutcome:
    checks: int
    failures: int
    first: Optional[str] = None


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    cases: int
    failures: int
    first_counterexample: Optional[str]
    parameters: dict

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "cases": self.cases,
            "failures": self.failures,
            "passed": self.passed,
            "first_counterexample": self.first_counterexample,
            "parameters": self.parameters,
        }


def _iter_pq(p_lo: int, p_hi: int, q_policy: str):
    for p in range(p_lo, p_hi + 1):
        for q in range(2, p):
            if q_policy == "coprime" and math.gcd(p, q) != 1:
                continue
            yield p, q


def _merge(outcomes) -> tuple[int, int, Optional[str]]:
    checks = failures = 0
    first = None
    for oc in outcomes:
        checks += oc.checks
        failures += oc.failures
        if first is None and oc.first is not None:
            first = oc.first
    return checks, failures, first


def _guarded(fn: Callable[..., CaseOutcome], *args) -> CaseOutcome:
    try:
        return fn(*args)
    except Exception as exc:  # a crashed case is a failed case
        return CaseOutcome(1, 1, f"{fn.__name__}{args}: {exc!r}")


# ---------------------------------------------------------------------------
# per-case checks
# ---------------------------------------------------------------------------

def _support_case(p: int, q: int, backend: str) -> CaseOutcome:
    poly = phimod.phi_polynomial(p, q, backend)
    checks = failures = 0
    first = None
    for r in range(p + 1):
        for s in range(p + 1):
            checks += 1
            predicted = phimod.support(p, q, r, s)
            actual = poly.coefficient(r, s) != 0
            if predicted != actual:
                failures += 1
                if first is None:
                    first = (
                        f"(p={p}, q={q}, r={r}, s={s}): support predicate "
                        f"{predicted} vs backend {actual}"
                    )
    # no stored term may fall outside the scanned square
    for m in poly.terms:
        if m.r > p or m.s > p:
            failures += 1
            first = first or f"(p={p}, q={q}): stray exponent {m}"
    return CaseOutcome(checks, failures, first)


def _sign_case(p: int, q: int) -> CaseOutcome:
    """Newton's polynomial against the other exact routes, and the sign rule.

    Every case has Newton's identities and at least one other route.
    The other routes are compared in a chain, one check per adjacent
    pair.  Newton's polynomial is compared with the first of them one
    monomial at a time, in the same check as that monomial's sign, over
    the union of their terms.
    """
    spec = CirculantSpec(p, q)
    newton = det_newton(spec)
    polys = {}
    if p <= 9:
        polys["bruteforce"] = det_bruteforce(spec)
    dp_ok = dp_cost(p, q) <= DP_BUDGET
    if dp_ok:
        polys["cycle_cover"] = det_cycle_cover(spec)
    if p <= 24 or not dp_ok:
        polys["bareiss"] = det_bareiss(spec)
    names = sorted(polys)
    checks = failures = 0
    first = None
    for a, b in zip(names, names[1:]):
        checks += 1
        if polys[a] != polys[b]:
            failures += 1
            first = first or f"(p={p}, q={q}): {a} and {b} disagree"
    ref = polys[names[0]]
    for m in sorted(ref.terms.keys() | newton.terms.keys(), key=Monomial.sort_key):
        checks += 1
        c = ref.coefficient(m.r, m.s)
        cn = newton.coefficient(m.r, m.s)
        expected = PermClassKey(p, q, m.r, m.s).term_sign
        if cn != c:
            failures += 1
            first = first or (
                f"(p={p}, q={q}): a({m.r},{m.s}) = {c} by {names[0]} "
                f"but {cn} by newton"
            )
        elif expected is None or (c > 0) != (expected > 0):
            failures += 1
            if first is None:
                first = (
                    f"(p={p}, q={q}): a({m.r},{m.s}) = {c} but the gcd "
                    f"rule gives sign {expected}"
                )
    return CaseOutcome(checks, failures, first)


def _cycle_case(p: int, q: int) -> CaseOutcome:
    classes = enumerate_by_profile(p, q)
    poly = det_bruteforce(CirculantSpec(p, q))
    checks = failures = 0
    first = None

    def fail(msg: str) -> None:
        nonlocal failures, first
        failures += 1
        if first is None:
            first = msg

    # nonemptiness in both directions
    for r in range(p + 1):
        for s in range(p + 1 - r):
            checks += 1
            k = PermClassKey(p, q, r, s)
            if ((r, s) in classes) != (not k.is_empty):
                fail(f"(p={p}, q={q}, r={r}, s={s}): emptiness mismatch")

    for (r, s), members in sorted(classes.items()):
        checks += 1
        if abs(poly.coefficient(r, s)) != len(members):
            fail(
                f"(p={p}, q={q}, r={r}, s={s}): |class| = {len(members)} "
                f"but |a| = {abs(poly.coefficient(r, s))}"
            )
        if r == 0 and s == 0:
            continue
        key = PermClassKey(p, q, r, s)
        rep = predict_structure(key)
        per_cycle = sorted([rep.cycles_each] * rep.k)
        for sigma in members:
            checks += 1
            profiles = []
            for cyc in sigma.cycles():
                ones = sum(
                    1
                    for a, b in zip(cyc, cyc[1:] + cyc[:1])
                    if (b - a) % p == 1
                )
                qs = len(cyc) - ones
                profiles.append((ones, qs))
            if sorted(profiles) != per_cycle or sigma.sign() != rep.sign:
                fail(
                    f"(p={p}, q={q}, r={r}, s={s}): member "
                    f"{sigma.one_line()} deviates from {rep}"
                )
            checks += 1
            gcd_one = all(PermClassKey(p, q, a, b).k == 1 for a, b in profiles)
            if not gcd_one:
                fail(
                    f"(p={p}, q={q}, r={r}, s={s}): cycle profile with "
                    f"gcd > 1 in {sigma.one_line()}"
                )

    if (p, q) == (5, 3):
        checks += 1
        expected = {
            (1, 2, 4, 5, 3),
            (1, 3, 4, 2, 5),
            (2, 3, 1, 4, 5),
            (2, 5, 3, 4, 1),
            (4, 2, 3, 5, 1),
        }
        got = {m.images for m in classes.get((2, 1), [])}
        if got != expected:
            fail(f"T_(5,3)(2,1) = {sorted(got)}, expected {sorted(expected)}")
    return CaseOutcome(checks, failures, first)


def _witness_case(p: int, q: int) -> CaseOutcome:
    checks = failures = 0
    first = None
    classes = enumerate_by_profile(p, q) if p <= 9 else None
    for s in range(p + 1):
        for r in range(p + 1 - s):
            key = PermClassKey(p, q, r, s)
            if key.is_empty:
                continue
            checks += 1
            sigma = construct_witness(key)
            prof = displacement_profile(sigma, p, q)
            ok = prof == (r, s, p - r - s)
            if ok and (r, s) != (0, 0):
                rep = predict_structure(key)
                cycles = sigma.cycles()
                ok = len(cycles) == rep.k and all(
                    len(c) == rep.cycle_length for c in cycles
                )
                ok = ok and sigma.sign() == rep.sign
            if ok and classes is not None:
                ok = sigma in set(classes.get((r, s), []))
            if not ok:
                failures += 1
                if first is None:
                    first = f"witness for (p={p}, q={q}, r={r}, s={s}) invalid"
    return CaseOutcome(checks, failures, first)


def _permanent_case(p: int, q: int) -> CaseOutcome:
    """The bounds report, Ryser's value at p <= 20 and the three bounds.

    ``bounds_report`` compares the unsigned DP with the absolute signed
    polynomial term by term and raises on a mismatch, which fails the
    case; that comparison is the first check counted.
    """
    rep = bounds_report(p, q)
    results = [
        (rep.lower_ok, "lower bound 3^p p!/p^p fails"),
        (rep.upper_ok, "upper bound 6^(p/3) fails"),
        (rep.sandwich_ok, "d11/N <= M <= d11 fails"),
    ]
    if p <= RYSER_DEFAULT_CROSSCHECK:
        ry = permanent_ryser(p, q)
        results.insert(0, (ry == rep.d11, f"ryser {ry}, DP and abs-sum {rep.d11}"))
    bad = [msg for ok, msg in results if not ok]
    first = f"(p={p}, q={q}): {bad[0]}" if bad else None
    return CaseOutcome(1 + len(results), len(bad), first)


def _prime_case(p: int) -> CaseOutcome:
    got = phimod.primality_check(p)
    want = phimod.trial_division(p)
    if got != want:
        return CaseOutcome(
            1, 1, f"p={p}: congruence check {got}, trial division {want}"
        )
    return CaseOutcome(1, 0)


# ---------------------------------------------------------------------------
# randomized lemma batteries
# ---------------------------------------------------------------------------

def _check_cyclic_order(rng: random.Random):
    p = rng.randint(3, 60)
    m = rng.randint(3, min(p, 8))
    zs = rng.sample(range(1, p + 1), m)
    q = rng.randint(1, p - 1)
    ws = [rotate(z, q, p) for z in zs]
    lhs, rhs = cyclic_order(zs), cyclic_order(ws)
    return lhs == rhs, f"p={p} q={q} zs={zs}: {lhs} vs rotated {rhs}"


def _check_path_bound(rng: random.Random):
    r = rng.randint(0, 20)
    s = rng.randint(0, 20)
    if r + s == 0:
        r = 1
    ok = path_bound_check(build_path(r, s), r, s)
    return ok, f"path bound fails for r={r} s={s}"


def _check_divisibility_gap(rng: random.Random):
    p = rng.randint(3, 50)
    q = rng.randint(2, p - 1)
    b = rng.randint(-20, 20)
    s = rng.randint(-20, 20)
    a = -b * q + p * rng.randint(-3, 3)
    r = -s * q + p * rng.randint(-3, 3)
    v = s * a - r * b
    ok = v == 0 or abs(v) >= p
    return ok, f"p={p} q={q} a={a} b={b} r={r} s={s}: sa-rb={v}"


_LEMMA_BATTERIES = {
    "cyclic_order": _check_cyclic_order,
    "path_bound": _check_path_bound,
    "divisibility_gap": _check_divisibility_gap,
}


def _lemma_chunk(battery: str, n: int, seed: int) -> CaseOutcome:
    rng = random.Random(seed)
    check = _LEMMA_BATTERIES[battery]
    failures = 0
    first = None
    for _ in range(n):
        ok, desc = check(rng)
        if not ok:
            failures += 1
            if first is None:
                first = f"{battery}: {desc}"
    return CaseOutcome(n, failures, first)


# ---------------------------------------------------------------------------
# suite assembly
# ---------------------------------------------------------------------------

def _build_support(p_max, q_policy, cases, seed):
    out = [("support", p, q, "bruteforce") for p, q in _iter_pq(3, min(p_max, 9), q_policy)]
    if p_max > 9:
        out += [
            ("support", p, q, "cycle_cover")
            for p, q in _iter_pq(10, p_max, q_policy)
            if q <= 8
        ]
    for _, p, q, backend in out:
        if backend == "cycle_cover":
            check_dp_budget(p, q)
    return out


def _build_sign(p_max, q_policy, cases, seed):
    if p_max > BAREISS_LIMIT:
        # past it, wide windows have no exact route besides Newton's
        raise TooLarge(f"the sign suite needs pmax <= {BAREISS_LIMIT}")
    return [("sign", p, q) for p, q in _iter_pq(3, p_max, q_policy)]


def _build_cycle(p_max, q_policy, cases, seed):
    if p_max > 9:
        raise TooLarge("the cycle suite enumerates classes and needs pmax <= 9")
    return [("cycle", p, q) for p, q in _iter_pq(3, p_max, q_policy)]


def _build_witness(p_max, q_policy, cases, seed):
    return [("witness", p, q) for p, q in _iter_pq(3, p_max, q_policy)]


def _build_permanent(p_max, q_policy, cases, seed):
    if p_max > RYSER_LIMIT:
        raise TooLarge(f"the permanent suite needs pmax <= {RYSER_LIMIT}")
    out = [("permanent", p, q) for p, q in _iter_pq(3, p_max, q_policy)]
    for _, p, q in out:
        check_dp_budget(p, q)
    return out


def _build_prime(p_max, q_policy, cases, seed):
    if p_max > NEWTON_LIMIT:
        raise TooLarge(f"the prime suite needs pmax <= {NEWTON_LIMIT}")
    return [("prime", p) for p in range(3, p_max + 1)]


def _build_lemmas(p_max, q_policy, cases, seed):
    out = []
    for b_idx, battery in enumerate(sorted(_LEMMA_BATTERIES)):
        base, extra = divmod(cases, LEMMA_CHUNKS)
        for i in range(LEMMA_CHUNKS):
            n = base + (1 if i < extra else 0)
            if n:
                out.append(("lemmas", battery, n, seed + 1000 * b_idx + i))
    return out


_SUITE_BUILDERS = {
    "support": _build_support,
    "sign": _build_sign,
    "cycle": _build_cycle,
    "witness": _build_witness,
    "permanent": _build_permanent,
    "prime": _build_prime,
    "lemmas": _build_lemmas,
}

_CASE_FNS = {
    "support": _support_case,
    "sign": _sign_case,
    "cycle": _cycle_case,
    "witness": _witness_case,
    "permanent": _permanent_case,
    "prime": _prime_case,
    "lemmas": _lemma_chunk,
}


def run_case(case: tuple) -> CaseOutcome:
    """Execute one self-contained case tuple (kind, *args)."""
    return _guarded(_CASE_FNS[case[0]], *case[1:])


def suite_parameters(
    suite: str,
    p_max: Optional[int] = None,
    q_policy: str = "all",
    cases: int = DEFAULT_CASES,
    seed: int = DEFAULT_SEED,
) -> dict:
    """The effective (fully-defaulted) parameters of a suite run.

    Carried into the result so reports are self-describing; the prime
    suite records the fixed q its congruence check uses.  A size that
    would check nothing (cases < 1 for lemmas, p_max < 3 otherwise) is
    a ValueError.
    """
    if suite not in _SUITE_BUILDERS:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    if q_policy not in ("all", "coprime"):
        raise ValueError(f"unknown q policy {q_policy!r}")
    if p_max is None:
        p_max = DEFAULT_PMAX.get(suite, 9)
    if suite == "lemmas":
        if cases < 1:
            raise ValueError(f"cases must be at least 1, got {cases}")
        return {"cases_per_battery": cases, "seed": seed}
    if p_max < 3:
        raise ValueError(f"pmax must be at least 3, got {p_max}")
    if suite == "prime":
        return {"p_max": p_max, "q": 2}
    return {"p_max": p_max, "q_policy": q_policy}


def build_cases(
    suite: str,
    p_max: Optional[int] = None,
    q_policy: str = "all",
    cases: int = DEFAULT_CASES,
    seed: int = DEFAULT_SEED,
) -> list[tuple]:
    """The deterministic, ordered case list of a suite."""
    suite_parameters(suite, p_max, q_policy, cases, seed)  # validates
    if p_max is None:
        p_max = DEFAULT_PMAX.get(suite, 9)
    return _SUITE_BUILDERS[suite](p_max, q_policy, cases, seed)


def run_suite(
    suite: str,
    p_max: Optional[int] = None,
    q_policy: str = "all",
    cases: int = DEFAULT_CASES,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
) -> SuiteResult:
    """Run a whole suite and merge the outcomes in case order.

    With ``workers`` > 1 the cases are spread over that many worker
    processes; the result does not depend on the worker count.
    """
    case_list = build_cases(suite, p_max, q_policy, cases, seed)
    params = suite_parameters(suite, p_max, q_policy, cases, seed)
    if workers > 1 and len(case_list) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(run_case, case_list, chunksize=4))
    else:
        outcomes = map(run_case, case_list)
    checks, failures, first = _merge(outcomes)
    return SuiteResult(suite, checks, failures, first, params)
