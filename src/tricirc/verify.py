"""Named verification suites sweeping the structure theorems.

Each suite turns one theorem (or a family of lemmas) into a battery of
machine checks against independent oracles:

* ``support``   -- nonzero coefficients are exactly the divisible profiles;
* ``sign``      -- every term obeys the gcd parity sign rule, and the
                   exact backends agree: Newton's identities, Bareiss
                   and the cycle-cover DP in every case, and brute
                   force up to ``EXHAUSTIVE_PMAX``;
* ``cycle``     -- class members share one cycle type and one sign, and
                   class sizes match coefficient magnitudes;
* ``witness``   -- the constructed member lands in its class with the
                   predicted cycle structure, and up to
                   ``EXHAUSTIVE_PMAX`` the profiles walked are the
                   classes that the search finds;
* ``permanent`` -- Ryser, the unsigned DP and the signed polynomial
                   agree in every case, and the two-sided bounds hold;
* ``prime``     -- the binomial congruence matches trial division;
* ``lemmas``    -- randomized checks of cyclic order kept under
                   rotation, the lattice-path bound of the path that
                   ``construct_witness`` walks, and the paper's
                   divisibility-gap lemma in integer arithmetic.

A suite is one row of ``_SUITES``, plain data: its default and largest
size (cases per battery for ``lemmas``, pmax for the others), the kind
of its case list and the package modules its case function imports.
The row's functions are looked up on this module by name as they run:
``_<kind>_args`` lists the cases, ``_<suite>_case`` runs one and
``_check_<battery>`` draws one lemma instance.  A case function runs the
same routes in every case, and the largest size is the suite's own
measured size, inside every route's reach.  It imports the home modules
of its routes when it runs and calls each route on its module, so a
suite loads only its own routes (``lemmas`` and ``witness`` only
:mod:`tricirc.permclass`, ``prime`` nothing beyond :mod:`tricirc.phi`,
which this module imports), and a function rebound on its module, as a
tracer or a fault-injecting test does, is the one the suite runs.
A case function is a generator that yields once per check: ``None``
when the check passed, the counterexample text when it failed, so a
message is built only for a failure.  :func:`run_case` keeps the one
tally of checks, failures and first counterexample, and counts a case
that raises as one failed check.

Every case is pure.  :func:`run_suite` splits them into strided shares
over ``min(workers, cases, CPUs)`` processes, counting the CPUs this
process may run on (its affinity set, else ``os.cpu_count()``): the
parent runs one share and ``os.fork`` starts a child for each other
share, which sends its outcomes back over a pipe.  At one share, and
always where ``os.fork`` does not exist, the parent runs the whole list
in order.  The outcomes are merged back into case order, so the result
is identical for any worker count; a child that dies or sends a broken
share raises :class:`InternalInconsistency` rather than leave the
result partial.
"""

import marshal
import math
import operator
import os
import random
from typing import Iterator, NamedTuple, Optional

from . import phi as phimod
from .bipoly import Monomial
from .errors import InternalInconsistency, TooLarge
from .phi import NEWTON_LIMIT, CirculantSpec, PermClassKey, Record

#: largest p swept exhaustively, by brute force (the Leibniz expansion
#: over the matrix's nonzero entries) and by enumerating every class
#: (brute force's times at p = 9 and p = 10 are among README's other
#: measured times); the check counts, goldens and benchmark references
#: rest on this size
EXHAUSTIVE_PMAX = 9

DEFAULT_CASES = 10000
DEFAULT_SEED = 90437

#: largest cases per battery of the ``lemmas`` suite (its time with one
#: worker is the README limits table's row)
LEMMA_CASES_LIMIT = 100000

#: lemma batteries are split into this many fixed chunks so results do
#: not depend on how chunks are assigned to workers
LEMMA_CHUNKS = 32

#: the ``support`` suite's largest q past ``EXHAUSTIVE_PMAX``, where the DP
#: replaces brute force: a window of q + 1 bits or fewer keeps it far in budget
_SUPPORT_DP_QMAX = 8

#: what a case function yields per check: None, or the counterexample
Checks = Iterator[Optional[str]]


class SuiteResult(Record):
    """The merged outcome of a suite run, with its effective parameters."""

    __slots__ = ("suite", "cases", "failures", "first_counterexample", "parameters")

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_json_dict(self) -> dict:
        return {**Record.to_json_dict(self), "passed": self.passed}


def _iter_pq(p_lo: int, p_hi: int, q_policy: str):
    for p in range(p_lo, p_hi + 1):
        for q in range(2, p):
            if q_policy == "coprime" and math.gcd(p, q) != 1:
                continue
            yield p, q


# ---------------------------------------------------------------------------
# per-case checks
# ---------------------------------------------------------------------------

def _support_case(p: int, q: int, backend: str) -> Checks:
    poly = phimod.phi_polynomial(p, q, backend)
    for r in range(p + 1):
        for s in range(p + 1):
            predicted = PermClassKey.present(p, q, r, s)
            actual = poly.coefficient(r, s) != 0
            yield None if predicted == actual else (
                f"(p={p}, q={q}, r={r}, s={s}): support predicate "
                f"{predicted} vs backend {actual}"
            )
    # no stored term may fall outside the scanned square
    for m in poly.terms:
        if m.r > p or m.s > p:
            yield f"(p={p}, q={q}, r={m.r}, s={m.s}): stray term outside the square"


def _sign_case(p: int, q: int) -> Checks:
    """Newton's polynomial against the other exact routes, and the sign rule.

    Bareiss and the DP run in every case, and brute force too at
    p <= EXHAUSTIVE_PMAX.  These routes are compared in a chain, one
    check per adjacent pair.  Newton's polynomial is compared with the
    first of them one monomial at a time, in the same check as that
    monomial's sign, over the union of their terms.  Newton and brute
    force run at q, Bareiss and the DP at the smallest image of q
    (:func:`tricirc.phi.canonical_images`), except that at
    q = p/2 and p/2 + 1 the DP runs at p/2 and Bareiss at p/2 + 1.  So
    two different offsets are compared wherever q is not its own
    smallest image.
    """
    from . import circulant

    spec = CirculantSpec(p, q)
    newton = phimod.det_newton(spec)
    polys = {
        "bareiss": circulant.det_bareiss(spec),
        "cycle_cover": circulant.det_cycle_cover(spec),
    }
    if p <= EXHAUSTIVE_PMAX:
        polys["bruteforce"] = circulant.det_bruteforce(spec)
    names = sorted(polys)
    for a, b in zip(names, names[1:]):
        yield None if polys[a] == polys[b] else f"(p={p}, q={q}): {a} and {b} disagree"
    ref = polys[names[0]]
    for m in sorted(ref.terms.keys() | newton.terms.keys(), key=Monomial.sort_key):
        c = ref.coefficient(m.r, m.s)
        cn = newton.coefficient(m.r, m.s)
        expected = PermClassKey(p, q, m.r, m.s).term_sign
        if cn != c:
            yield (
                f"(p={p}, q={q}): a({m.r},{m.s}) = {c} by {names[0]} "
                f"but {cn} by newton"
            )
        elif expected is None or (c > 0) != (expected > 0):
            yield (
                f"(p={p}, q={q}): a({m.r},{m.s}) = {c} but the gcd "
                f"rule gives sign {expected}"
            )
        else:
            yield None


def _cycle_case(p: int, q: int) -> Checks:
    from . import circulant, permclass

    classes = permclass.enumerate_by_profile(p, q)
    poly = circulant.det_bruteforce(CirculantSpec(p, q))

    # nonemptiness in both directions
    for r in range(p + 1):
        for s in range(p + 1 - r):
            nonempty = PermClassKey.present(p, q, r, s)
            yield None if ((r, s) in classes) == nonempty else (
                f"(p={p}, q={q}, r={r}, s={s}): emptiness mismatch"
            )

    for (r, s), members in sorted(classes.items()):
        size = abs(poly.coefficient(r, s))
        yield None if size == len(members) else (
            f"(p={p}, q={q}, r={r}, s={s}): |class| = {len(members)} "
            f"but |a| = {size}"
        )
        if r == 0 and s == 0:
            continue
        rep = permclass.predict_structure(PermClassKey(p, q, r, s))
        # a member that fits has every cycle of this profile
        gcd_one = PermClassKey(p, q, *rep.cycles_each).k == 1
        for sigma in members:
            ok = rep.fits(sigma.cycles(), p, q)
            yield None if ok else (
                f"(p={p}, q={q}, r={r}, s={s}): member "
                f"{sigma.one_line()} deviates from {rep}"
            )
            yield None if ok and gcd_one else (
                f"(p={p}, q={q}, r={r}, s={s}): cycle profile with "
                f"gcd > 1 in {sigma.one_line()}"
            )

    if (p, q) == (5, 3):
        expected = {
            (1, 2, 4, 5, 3),
            (1, 3, 4, 2, 5),
            (2, 3, 1, 4, 5),
            (2, 5, 3, 4, 1),
            (4, 2, 3, 5, 1),
        }
        got = {m.images for m in classes.get((2, 1), [])}
        yield None if got == expected else (
            f"T_(5,3)(2,1) = {sorted(got)}, expected {sorted(expected)}"
        )


def _witness_case(p: int, q: int) -> Checks:
    from . import permclass

    profiles = PermClassKey.nonempty_profiles(p, q)
    classes = None
    mismatch = None  # folded into the first check, so the count stays put
    if p <= EXHAUSTIVE_PMAX:
        classes = permclass.enumerate_by_profile(p, q)
        walked = set(profiles)
        missing = sorted(classes.keys() - walked)
        extra = sorted(walked - classes.keys())
        if missing or extra:
            mismatch = (
                f"(p={p}, q={q}): the profiles walked miss the classes "
                f"{missing} and add the empty ones {extra}"
            )
    for r, s in profiles:
        key = PermClassKey(p, q, r, s)
        sigma = permclass.construct_witness(key)
        # k cycles of r/k 1-steps and s/k q-steps imply the profile; the
        # identity class's report (k = 0) fits only the empty cycle list
        ok = permclass.predict_structure(key).fits(sigma.cycles(), p, q)
        if ok and classes is not None:
            ok = sigma in classes.get((r, s), ())
        yield mismatch or (
            None if ok else f"witness for (p={p}, q={q}, r={r}, s={s}) invalid"
        )
        mismatch = None


def _permanent_case(p: int, q: int) -> Checks:
    """The bounds report, Ryser's value and the three bounds.

    ``bounds_report`` compares the unsigned DP with the absolute signed
    polynomial term by term and raises on a mismatch, which fails the
    case; that comparison is the first check counted.
    """
    from . import permanent

    rep = permanent.bounds_report(p, q)
    yield None
    ry = permanent.permanent_ryser(p, q)
    yield None if ry == rep.d11 else (
        f"(p={p}, q={q}): ryser {ry}, DP and abs-sum {rep.d11}"
    )
    for ok, bound in (
        (rep.lower_ok, "lower bound 3^p p!/p^p"),
        (rep.upper_ok, "upper bound 6^(p/3)"),
        (rep.sandwich_ok, "d11/N <= M <= d11"),
    ):
        yield None if ok else f"(p={p}, q={q}): {bound} fails"


def _prime_case(p: int) -> Checks:
    got = phimod.primality_check(p)
    want = phimod.trial_division(p)
    yield None if got == want else (
        f"p={p}: congruence check {got}, trial division {want}"
    )


# ---------------------------------------------------------------------------
# randomized lemma batteries: each ``_check_<battery>`` draws one instance
# and returns None if the lemma holds there, else a description of the
# instance; the routes come from the permclass module that the case passes in
# ---------------------------------------------------------------------------

def _randint(bits, a: int, b: int) -> int:
    # rng.randint(a, b) from bits = rng.getrandbits: the rejection loop
    # of Random._randbelow, so the same value from the same state, at
    # under half the cost of randint's path through randrange
    n = b - a + 1
    k = n.bit_length()
    v = bits(k)
    while v >= n:
        v = bits(k)
    return a + v


def _rises_from_least(zs: list) -> bool:
    # cyclic order by its definition: started at its least point, the
    # sequence strictly increases
    i = zs.index(min(zs))
    run = zs[i:] + zs[:i]
    return all(map(operator.lt, run, run[1:]))


def _check_cyclic_order(rng: random.Random, permclass) -> Optional[str]:
    bits = rng.getrandbits
    p = _randint(bits, 3, 60)
    m = _randint(bits, 3, min(p, 8))
    zs = rng.sample(range(1, p + 1), m)
    q = _randint(bits, 1, p - 1)
    rotated = [(z + q - 1) % p + 1 for z in zs]  # z -> z + q in {1, ..., p}
    lhs, rhs = _rises_from_least(zs), _rises_from_least(rotated)
    return None if lhs == rhs else f"p={p} q={q} zs={zs}: {lhs} vs rotated {rhs}"


def _check_path_bound(rng: random.Random, permclass) -> Optional[str]:
    bits = rng.getrandbits
    r = _randint(bits, 0, 20)
    s = _randint(bits, 0, 20)
    if r + s == 0:
        r = 1
    built = permclass.path_bound_check(permclass.build_path(r, s), r, s)
    # the staircase E^r N^s has largest gap r*s, within r+s-1 only when
    # r < 2 or s < 2, so a check that passes every word fails on it
    stair = permclass.path_bound_check("E" * r + "N" * s, r, s)
    ok = built and stair == (r < 2 or s < 2)
    return None if ok else f"r={r} s={s}: built path {built}, staircase {stair}"


def _check_divisibility_gap(rng: random.Random, permclass) -> Optional[str]:
    """The paper's divisibility-gap lemma restated in integer arithmetic."""
    bits = rng.getrandbits
    p = _randint(bits, 3, 50)
    q = _randint(bits, 2, p - 1)
    b = _randint(bits, -20, 20)
    s = _randint(bits, -20, 20)
    a = -b * q + p * _randint(bits, -3, 3)
    r = -s * q + p * _randint(bits, -3, 3)
    v = s * a - r * b
    ok = v == 0 or abs(v) >= p
    return None if ok else f"p={p} q={q} a={a} b={b} r={r} s={s}: sa-rb={v}"


#: the battery names, in the order their chunks are listed and seeded
_LEMMA_BATTERIES = ("cyclic_order", "divisibility_gap", "path_bound")


def _lemmas_case(battery: str, n: int, seed: int) -> Checks:
    from . import permclass  # once per chunk, not per draw

    rng = random.Random(seed)
    check = globals()[f"_check_{battery}"]
    for _ in range(n):
        desc = check(rng, permclass)
        yield None if desc is None else f"{battery}: {desc}"


# ---------------------------------------------------------------------------
# suite assembly: each ``_<kind>_args`` lists a suite's case arguments
# ---------------------------------------------------------------------------

def _pairs_args(params):
    return list(_iter_pq(3, params["p_max"], params["q_policy"]))


def _support_args(params):
    p_max, q_policy = params["p_max"], params["q_policy"]
    out = [
        (p, q, "bruteforce")
        for p, q in _iter_pq(3, min(p_max, EXHAUSTIVE_PMAX), q_policy)
    ]
    for p, q in _iter_pq(EXHAUSTIVE_PMAX + 1, p_max, q_policy):
        if q <= _SUPPORT_DP_QMAX:
            out.append((p, q, "cycle_cover"))
    return out


def _prime_args(params):
    return [(p,) for p in range(3, params["p_max"] + 1)]


def _lemmas_args(params):
    cases, seed = params["cases_per_battery"], params["seed"]
    out = []
    for b_idx, battery in enumerate(_LEMMA_BATTERIES):
        base, extra = divmod(cases, LEMMA_CHUNKS)
        for i in range(LEMMA_CHUNKS):
            n = base + (1 if i < extra else 0)
            if n:
                out.append((battery, n, seed + 1000 * b_idx + i))
    return out


class _Suite(NamedTuple):
    default: int  # size when none is given: cases for lemmas, else pmax
    largest: int  # largest size admitted
    kind: str  # its case list is _<kind>_args: pairs, support, prime or lemmas
    modules: tuple[str, ...]  # the package modules the case function imports


#: name -> its row.  The largest size keeps one worker within the suites'
#: common target; ``support``, ``sign`` and ``permanent`` stay well under
#: it, as Bareiss and the DP run at a cheaper image of q and Ryser sums
#: over necklaces, and their caps wait for a common refit; ``prime`` runs
#: to Newton's limit.  README's limits table times each suite at its
#: largest size; the target, and ``sign`` and ``permanent`` one size
#: further, are among its other measured times
_SUITES = {
    "support": _Suite(EXHAUSTIVE_PMAX, 50, "support", ("circulant",)),
    "sign": _Suite(EXHAUSTIVE_PMAX, 23, "pairs", ("circulant",)),
    "cycle": _Suite(
        EXHAUSTIVE_PMAX, EXHAUSTIVE_PMAX, "pairs", ("circulant", "permclass")
    ),
    "witness": _Suite(30, 60, "pairs", ("permclass",)),
    "permanent": _Suite(12, 18, "pairs", ("permanent",)),
    "prime": _Suite(40, NEWTON_LIMIT, "prime", ()),
    "lemmas": _Suite(DEFAULT_CASES, LEMMA_CASES_LIMIT, "lemmas", ("permclass",)),
}

SUITES = tuple(_SUITES)


def run_case(case: tuple) -> tuple[int, int, Optional[str]]:
    """Run one self-contained case tuple (kind, *args) and tally its checks.

    The tally is (checks run, checks failed, first counterexample or None).
    """
    fn = globals()[f"_{case[0]}_case"]
    args = case[1:]
    checks = failures = 0
    first = None
    try:
        for failure in fn(*args):
            checks += 1
            if failure is not None:
                failures += 1
                if first is None:
                    first = failure
    except Exception as exc:  # a crashed case is a failed case
        return 1, 1, f"{fn.__name__}{args}: {exc!r}"
    return checks, failures, first


def suite_parameters(
    suite: str,
    p_max: Optional[int] = None,
    q_policy: str = "all",
    cases: Optional[int] = None,
) -> dict:
    """The effective (fully-defaulted) parameters of a suite run.

    Carried into the result so reports are self-describing; the prime
    suite records the fixed q its congruence check uses, and the lemmas
    suite the fixed ``DEFAULT_SEED`` its draws come from.  The lemmas
    suite is sized by cases, every other suite by p_max, and only the
    suites that sweep (p, q) pairs read a q policy other than ``all``.
    An unknown suite or a flag the suite does not read is a ValueError.
    Then one rule sizes every suite from its row: a size that would
    check nothing (cases < 1 for lemmas, p_max < 3 otherwise) is a
    ValueError, a size past the row's largest is :class:`TooLarge`.
    """
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    if q_policy not in ("all", "coprime"):
        raise ValueError(f"unknown q policy {q_policy!r}")
    if suite == "lemmas":
        flag, least, size, unread = "cases", 1, cases, {"pmax": p_max}
    else:
        flag, least, size, unread = "pmax", 3, p_max, {"cases": cases}
    if suite in ("prime", "lemmas"):  # neither sweeps (p, q) pairs
        unread["q-policy"] = None if q_policy == "all" else q_policy
    for name, value in unread.items():
        if value is not None:
            raise ValueError(f"the {suite} suite does not read {name}")
    row = _SUITES[suite]
    size = row.default if size is None else size
    if size < least:
        raise ValueError(f"{flag} must be at least {least}, got {size}")
    if size > row.largest:
        raise TooLarge(f"the {suite} suite needs {flag} <= {row.largest}")
    if suite == "lemmas":
        return {"cases_per_battery": size, "seed": DEFAULT_SEED}
    if suite == "prime":
        return {"p_max": size, "q": phimod.PRIMALITY_Q}
    return {"p_max": size, "q_policy": q_policy}


def _case_list(suite: str, params: dict) -> list[tuple]:
    build = globals()[f"_{_SUITES[suite].kind}_args"]
    return [(suite, *args) for args in build(params)]


def _require_whole(suite: str, params: dict, case_list: list) -> None:
    """InternalInconsistency unless the case list is as long as the
    parameters say, counted without listing the cases: by the row's
    kind, each lemma battery's chunks draw ``cases_per_battery`` in
    all, ``prime`` has one case per p, and every other suite one per
    (p, q) pair that its q policy admits (for ``support``,
    q <= ``_SUPPORT_DP_QMAX`` past ``EXHAUSTIVE_PMAX``)."""
    kind = _SUITES[suite].kind
    if kind == "lemmas":
        got = {}
        for _, battery, n, _ in case_list:
            got[battery] = got.get(battery, 0) + n
        want = dict.fromkeys(_LEMMA_BATTERIES, params["cases_per_battery"])
    elif kind == "prime":
        got, want = len(case_list), params["p_max"] - 2
    else:
        got, want = len(case_list), 0
        coprime = params["q_policy"] == "coprime"
        for p in range(3, params["p_max"] + 1):
            top = _SUPPORT_DP_QMAX if kind == "support" and p > EXHAUSTIVE_PMAX else p - 1
            want += (
                sum(math.gcd(p, q) == 1 for q in range(2, top + 1)) if coprime else top - 1
            )
    if got != want:
        raise InternalInconsistency(f"the {suite} suite listed {got} cases, expected {want}")


def _run_share(case_list: list, i: int, width: int) -> list[tuple]:
    return [run_case(case) for case in case_list[i::width]]


def _child_share(case_list: list, i: int, width: int, r: int, w: int) -> None:
    """Run share i in a forked child, send it down the pipe and exit."""
    code = 1
    try:
        os.close(r)
        payload = marshal.dumps(_run_share(case_list, i, width))
        with os.fdopen(w, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


def _reap(pid: int, fd: int) -> tuple[int, bytes]:
    """Read a child's pipe to EOF, then wait for it: (exit code, payload)."""
    with os.fdopen(fd, "rb") as pipe:
        payload = pipe.read()
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), payload


def _decode(pid: int, status: int, payload: bytes, expected: int) -> list[tuple]:
    """A child's share, or InternalInconsistency unless it is whole."""
    if status != 0:
        raise InternalInconsistency(f"verify worker {pid} exited with status {status}")
    try:
        share = [(c, f, first) for c, f, first in marshal.loads(payload)]
    except (EOFError, ValueError, TypeError) as exc:
        raise InternalInconsistency(
            f"verify worker {pid} sent an unreadable share: {exc!r}"
        ) from None
    if len(share) != expected:
        raise InternalInconsistency(
            f"verify worker {pid} sent {len(share)} outcomes, expected {expected}"
        )
    return share


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set (a cpuset can be
    smaller than the machine), else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fan_out(case_list: list, width: int) -> list[tuple]:
    """Outcomes in case order, from ``width`` strided shares of the cases.

    Share i is ``case_list[i::width]``.  Shares 1..width-1 each run in a
    forked child that sends its outcomes back over a pipe; the parent
    runs share 0, then reads every pipe and reaps every child, even when
    its own share raised.  A share whose fork fails runs in the parent.
    At width 1 nothing is forked and share 0 is the whole list.
    Forking assumes the caller runs no other thread, as the CLI does not.
    """
    shares: list[Optional[list[tuple]]] = [None] * width
    children = []  # (share index, pid, read end)
    reaped = []
    try:
        for i in range(1, width):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                continue
            if pid == 0:
                _child_share(case_list, i, width, r, w)
            os.close(w)
            children.append((i, pid, r))
        shares[0] = _run_share(case_list, 0, width)
    finally:
        for i, pid, fd in children:
            reaped.append((i, pid, *_reap(pid, fd)))
    for i, pid, status, payload in reaped:
        shares[i] = _decode(pid, status, payload, len(case_list[i::width]))
    outcomes: list = [None] * len(case_list)
    for i, share in enumerate(shares):
        if share is None:  # its fork failed
            share = _run_share(case_list, i, width)
        outcomes[i::width] = share
    return outcomes


def run_suite(
    suite: str,
    p_max: Optional[int] = None,
    q_policy: str = "all",
    cases: Optional[int] = None,
    workers: int = 1,
) -> SuiteResult:
    """Run a whole suite and merge the outcomes in case order.

    The cases are split over ``min(workers, cases, CPUs)`` processes
    (see :func:`_fan_out` and :func:`_usable_cpus`), or over one, this
    process, where the platform has no ``os.fork``; the result does not
    depend on the worker count.  The modules of the suite's routes are
    imported here, before any fork, so that no child compiles them.
    The case list is checked whole (:func:`_require_whole`) before any
    case runs.
    """
    params = suite_parameters(suite, p_max, q_policy, cases)
    case_list = _case_list(suite, params)
    _require_whole(suite, params, case_list)
    for name in _SUITES[suite].modules:
        # __import__, unlike importlib.import_module, shows in -X importtime
        __import__(f"{__package__}.{name}")
    width = 1
    if hasattr(os, "fork"):
        width = max(1, min(workers, len(case_list), _usable_cpus()))
    outcomes = _fan_out(case_list, width)
    first = next((first for _, _, first in outcomes if first is not None), None)
    return SuiteResult(
        suite,
        sum(checks for checks, _, _ in outcomes),
        sum(failures for _, failures, _ in outcomes),
        first,
        params,
    )
