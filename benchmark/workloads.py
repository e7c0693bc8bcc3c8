"""Job catalogues of the three benchmark workloads and the seeded job list.

Every job is one ``tricirc`` command line.  Each workload has a fixed
catalogue of jobs split into strata.  A run's job list is a fixed number
of rounds, and every round holds a fixed number of jobs of every stratum
(see ``job_list``).  Within a stratum the jobs of the list sit at evenly
spaced quantiles of the jobs' cost, and the seed picks each from the few
jobs nearest its quantile.  So every seed runs the same mix of cheap and
dear jobs, which keeps the run-to-run spread of the metrics small, while
the seed still changes which (p, q) each slot gets.  The list does not
depend on how fast the code under test is: a faster commit runs the
same jobs in less time.

Reference outputs exist for every catalogue entry (``refs.json``, written
by ``make_refs.py``), so any seed can be checked.

Why each workload (all closed loop, one client, text output):

* ``polynomial`` -- ``phi``/``coeff`` over p = 24..64 and every q, wide
  windows included; the default Bareiss route, where ``BiPoly.__mul__``
  and ``exact_div`` carry the time.  A minority of slots goes to the
  counting-DP default at p = 65..96, q <= 5 (sized so no job passes about
  1 s), to ``--t`` specs that go through ``reduce_theta``, and to requests
  that must be refused.
* ``counting`` -- ``permanent`` at p <= 22 (DP window <= 8 bits) and
  ``growth`` tables for q = 2..7: the time goes to ``cycle_cover_counts``
  and Ryser's loop; Bareiss runs only at p <= 22 and is a small share.
* ``sweep`` -- ``verify`` of every suite at its default or a modestly
  raised size, fanned out to two worker processes: many tiny calls,
  cache reuse, brute force, class enumeration and process start-up.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("polynomial", "counting", "sweep")

#: TRICIRC_WORKERS for the timed (spawned) jobs of each workload
WORKERS = {"polynomial": 1, "counting": 1, "sweep": 2}

#: (stratum, jobs per round) of each workload
ROUNDS = {
    "polynomial": (("phi", 12), ("coeff", 6), ("phi_t", 2), ("cliff", 2), ("refuse", 1)),
    "counting": (("permanent", 12), ("growth", 8)),
    "sweep": (
        ("support", 2), ("sign", 2), ("cycle", 1), ("witness", 2), ("permanent", 1),
        ("prime", 2), ("lemmas", 1),
    ),
}

#: about the jobs per second at the commit that defined the benchmark
#: (2 CPUs, Python 3.11; the host's speed varied by up to 1.4x between
#: runs); sets how many rounds a run of given length holds
JOBS_PER_S = {"polynomial": 2.5, "counting": 3.2, "sweep": 1.9}

#: jobs whose cost at the defining commit passed this are never drawn, so
#: that no single job takes a large share of a run (Bareiss at p >= 52
#: with q = p/2 or q = p - 1 takes 1-3 s; narrower and odd windows stay)
MAX_JOB_S = 1.0

#: the seed picks a job among those at most this share cheaper or dearer
#: than the job at its place in the cost ranking (see ``job_list``)
COST_TOLERANCE = 0.05

#: largest growth-table pmax per q, so that no table takes over about 0.6 s
GROWTH_PMAX = {2: 48, 3: 44, 4: 36, 5: 28, 6: 25, 7: 22}

#: requests that must exit 3 with empty stdout
MUST_REFUSE = (
    ("phi", "--p", "6", "--q", "2", "--t", "4"),
    ("phi", "--p", "8", "--q", "2", "--t", "6"),
    ("phi", "--p", "12", "--q", "3", "--t", "9"),
    ("phi", "--p", "30", "--q", "6", "--t", "10"),
    ("phi", "--p", "40", "--q", "4", "--t", "2"),
    ("phi", "--p", "40", "--q", "20", "--backend", "cycle_cover"),
    ("phi", "--p", "36", "--q", "17", "--backend", "cycle_cover"),
    ("phi", "--p", "64", "--q", "33", "--backend", "cycle_cover"),
    ("coeff", "--p", "48", "--q", "24", "--r", "24", "--s", "24",
     "--backend", "cycle_cover"),
    ("phi", "--p", "12", "--q", "3", "--backend", "bruteforce"),
    ("enumerate", "--p", "12", "--q", "3", "--r", "1", "--s", "1"),
)


# The two rules below restate the library's on purpose: the job list must
# not depend on the code under test.


def window_width(p: int, q: int) -> int:
    """Occupancy-window width of the counting DP."""
    return min(q + 1, p - q + 2)


def present(p: int, q: int, r: int, s: int) -> bool:
    """The support theorem: whether a(r, s) is nonzero."""
    if r + s > p or (r + s * q) % p:
        return False
    return s > 0 or r in (0, p)


def _argv(cmd: str, **kw) -> tuple[str, ...]:
    out = [cmd]
    for k, v in kw.items():
        out += [f"--{k}", str(v)]
    return tuple(out)


def _middle_monomial(p: int, q: int) -> tuple[int, int]:
    terms = [(r, s) for s in range(p + 1) for r in range(p + 1 - s) if present(p, q, r, s)]
    return terms[len(terms) // 2]


def _polynomial() -> dict[str, list[tuple[str, ...]]]:
    pq = [(p, q) for p in range(24, 65) for q in range(2, p)]
    phi_t = []
    for p in range(24, 65):
        for t in (2, 3, p - 1):
            for q in sorted({1, p // 3, p // 2 + 1, p - 3}):
                if q == t or (math.gcd(t, p) > 1 and math.gcd(q, p) > 1):
                    continue
                phi_t.append(_argv("phi", p=p, q=q, t=t))
    coeff = []
    for p, q in pq:
        r, s = _middle_monomial(p, q)
        coeff.append(_argv("coeff", p=p, q=q, r=r, s=s))
        if p % 4 == 0:
            coeff.append(_argv("coeff", p=p, q=q, r=1, s=2))
    return {
        "phi": [_argv("phi", p=p, q=q) for p, q in pq],
        "coeff": coeff,
        "phi_t": phi_t,
        "cliff": [
            _argv("phi", p=p, q=q)
            for p in range(65, 97)
            for q in (2, 3, 4, 5)
            if q < 5 or p <= 80
        ],
        "refuse": list(MUST_REFUSE),
    }


def _counting() -> dict[str, list[tuple[str, ...]]]:
    return {
        "permanent": [
            _argv("permanent", p=p, q=q)
            for p in range(10, 23)
            for q in range(2, p)
            if window_width(p, q) <= 8
        ],
        "growth": [
            _argv("growth", q=q, pmax=pmax)
            for q, top in GROWTH_PMAX.items()
            for pmax in range(q + 6, top + 1)
        ],
    }


def _sweep() -> dict[str, list[tuple[str, ...]]]:
    def suite(name, flag, values, policies=("all", "coprime")):
        return [
            ("verify", "--suite", name, flag, str(v), "--q-policy", policy)
            for v in values
            for policy in policies
        ]

    # each suite at its default size (the first value) or modestly above
    return {
        "support": suite("support", "--pmax", range(9, 17)),
        "sign": suite("sign", "--pmax", range(9, 14)),
        "cycle": suite("cycle", "--pmax", (9,)),
        "witness": suite("witness", "--pmax", range(30, 41)),
        "permanent": suite("permanent", "--pmax", range(12, 15)),
        "prime": suite("prime", "--pmax", range(40, 61), ("all",)),
        "lemmas": suite("lemmas", "--cases", range(10000, 20001, 2000), ("all",)),
    }


_CATALOGUES = {"polynomial": _polynomial, "counting": _counting, "sweep": _sweep}


def catalogue(workload: str) -> dict[str, list[tuple[str, ...]]]:
    """Stratum name -> every job the workload can draw in that stratum."""
    return _CATALOGUES[workload]()


def rounds(workload: str, seconds: float) -> int:
    """Rounds in a job list that lasted about ``seconds`` when defined."""
    per_round = sum(n for _, n in ROUNDS[workload])
    return max(1, round(seconds * JOBS_PER_S[workload] / per_round))


def job_list(workload: str, seed: int, n_rounds: int, costs: dict[str, float]) -> list[tuple[str, ...]]:
    """The seeded job list of ``n_rounds`` rounds, in seeded order.

    A stratum with n jobs per round gets k = n * n_rounds jobs, placed at
    the quantiles (j + 1/2) / k of its catalogue ranked by cost.  The
    seed picks each among the jobs near its quantile, within an eighth of
    the quantile spacing (or one job either side) and within
    ``COST_TOLERANCE`` of the cost of the job at the quantile.  So the
    seed changes which (p, q) and sizes run but hardly the list's cost;
    with picks anywhere in the spacing, the median job's cost on a short
    list varied by a tenth from seed to seed.
    """
    cat = catalogue(workload)
    rng = random.Random(f"{workload}:{seed}")
    jobs = []
    for stratum, n in ROUNDS[workload]:
        ranked = sorted(
            (argv for argv in cat[stratum] if costs[" ".join(argv)] <= MAX_JOB_S),
            key=lambda argv: (costs[" ".join(argv)], argv),
        )
        k = n * n_rounds
        half = max(1, len(ranked) // (16 * k))
        for j in range(k):
            centre = len(ranked) * (2 * j + 1) // (2 * k)
            target = costs[" ".join(ranked[centre])]
            near = [
                argv
                for argv in ranked[max(0, centre - half):centre + half + 1]
                if abs(costs[" ".join(argv)] - target) <= COST_TOLERANCE * target
            ]
            jobs.append(rng.choice(near))
    rng.shuffle(jobs)
    return jobs
