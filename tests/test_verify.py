"""The verification harness itself: suite plumbing and small sweeps."""

import importlib.util
import itertools
import marshal
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from tricirc import permanent as permmod
from tricirc import permclass
from tricirc import phi as phimod
from tricirc import verify as verifymod
from tricirc.circulant import BAREISS_LIMIT, DP_BUDGET, dp_cost
from tricirc.phi import PermClassKey
from tricirc.errors import InternalInconsistency, TooLarge
from tricirc.permanent import RYSER_LIMIT
from tricirc.verify import SUITES, run_case, run_suite


def build_cases(suite, p_max=None, q_policy="all", cases=None, seed=None):
    """The deterministic, ordered case list of a suite, as run_suite builds it."""
    params = verifymod.suite_parameters(suite, p_max, q_policy, cases, seed)
    return verifymod._case_list(suite, params)


def test_all_suites_pass_at_small_sizes():
    small = {
        "support": {"p_max": 7},
        "sign": {"p_max": 7},
        "cycle": {"p_max": 7},
        "witness": {"p_max": 12},
        "permanent": {"p_max": 8},
        "prime": {"p_max": 20},
        "lemmas": {"cases": 600},
    }
    for suite in SUITES:
        res = run_suite(suite, **small[suite])
        assert res.passed, f"{suite}: {res.first_counterexample}"
        assert res.cases > 0


def test_case_lists_are_deterministic():
    a = build_cases("lemmas", cases=1000, seed=7)
    b = build_cases("lemmas", cases=1000, seed=7)
    assert a == b
    assert sum(c[2] for c in a) == 3000  # three batteries, 1000 each


def test_lemma_chunking_covers_exact_case_count():
    cases = build_cases("lemmas", cases=997, seed=1)
    per_battery = {}
    for _, battery, n, _ in cases:
        per_battery[battery] = per_battery.get(battery, 0) + n
    assert set(per_battery.values()) == {997}


def _patch_suite(monkeypatch, case_fn, cpus=2):
    # a "flaky" suite with the prime suite's cases p = 3..p_max, on a host
    # that reports ``cpus`` CPUs; with two workers the parent runs the odd
    # p (share 0) and a forked child the even p (share 1)
    monkeypatch.setitem(
        verifymod._SUITES, "flaky",
        verifymod._Suite(12, 12, verifymod._prime_args, case_fn, ()),
    )
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False
    )


def test_merge_preserves_first_counterexample_order(monkeypatch):
    # two workers merge their outcomes into the one-worker result
    for suite, size in (("prime", {"p_max": 10}), ("witness", {"p_max": 14}),
                        ("lemmas", {"cases": 200})):
        seq = run_suite(suite, **size, workers=1)
        assert run_suite(suite, **size, workers=2) == seq
        assert seq.passed and seq.cases > 0

    # failures in both shares: the child's p = 6 comes first in case
    # order, ahead of the parent's p = 7 and p = 9
    def flaky(p):
        yield None
        yield f"p={p} fails" if p in (6, 7, 9, 10) else None

    _patch_suite(monkeypatch, flaky)
    seq = run_suite("flaky", workers=1)
    assert (seq.cases, seq.failures) == (20, 4)
    assert seq.first_counterexample == "p=6 fails"
    assert run_suite("flaky", workers=2) == seq


def test_dead_worker_raises_and_is_reaped(monkeypatch):
    parent = os.getpid()
    forked = []
    real_fork = os.fork

    def recording_fork():
        pid = real_fork()
        forked.append(pid)
        return pid

    def dies_in_child(p):
        if p == 8 and os.getpid() != parent:
            os._exit(7)
        yield None

    _patch_suite(monkeypatch, dies_in_child)
    monkeypatch.setattr(os, "fork", recording_fork)
    with pytest.raises(InternalInconsistency, match="exited with status 7"):
        run_suite("flaky", workers=2)
    assert len(forked) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(forked[0], os.WNOHANG)


@pytest.mark.parametrize("payload", [
    b"",
    b"\xff\x00garbage",
    marshal.dumps([(1, 0, None), (2, 1, "x")])[:-3],
    marshal.dumps([(1, 0), (2, 1)]),
    marshal.dumps([(1, 0, None)]),
], ids=["nothing", "not-marshal", "cut-short", "row-shape", "one-of-two"])
def test_unreadable_share_raises(payload):
    with pytest.raises(InternalInconsistency):
        verifymod._decode(1234, 0, payload, 2)
    good = marshal.dumps([(1, 0, None), (2, 1, "x")])
    assert verifymod._decode(1234, 0, good, 2) == [(1, 0, None), (2, 1, "x")]


def test_fan_out_is_capped_by_the_cpu_count(monkeypatch):
    # a stub fork that counts its calls and fails starts no process; each
    # share whose fork fails runs in the parent, so the result is whole
    calls = []

    def failing_fork():
        calls.append(1)
        raise OSError("fork refused")

    seq = run_suite("prime", p_max=80, workers=1)
    real_cpus = os.cpu_count()
    monkeypatch.setattr(os, "fork", failing_fork)

    # the affinity set counts, not the machine's CPU count
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    for cpus in (1, 3, 5):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False
        )
        calls.clear()
        assert run_suite("prime", p_max=80, workers=64) == seq
        assert len(calls) == cpus - 1

    # where the platform has no affinity call, os.cpu_count() sizes it
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    for cpus in (real_cpus, 3, None):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        calls.clear()
        assert run_suite("prime", p_max=80, workers=64) == seq
        assert len(calls) == min(64, cpus or 1) - 1


def test_without_fork_the_cases_run_in_process(monkeypatch):
    monkeypatch.delattr(os, "fork")
    seq = run_suite("prime", p_max=20, workers=4)
    assert seq.passed and seq.cases == 18


def test_lemmas_catch_a_cyclic_order_that_rotation_breaks(monkeypatch):
    # rising from the first point instead of the least one is no longer
    # invariant under rotation, which the battery checks
    def rises_from_first(zs):
        return all(a < b for a, b in zip(zs, zs[1:]))

    good = run_suite("lemmas", cases=200, workers=1)
    assert good.passed
    monkeypatch.setattr(verifymod, "_rises_from_least", rises_from_first)
    bad = run_suite("lemmas", cases=200, workers=1)
    assert bad.cases == good.cases and bad.failures == 13
    # [11, 2, 4] is in cyclic order, but of it and its rotation by 2,
    # [1, 4, 6], only the rotation rises from its first point
    assert bad.first_counterexample == (
        "cyclic_order: p=12 q=2 zs=[11, 2, 4]: False vs rotated True"
    )


def rises_from_least_reference(zs) -> bool:
    """``_rises_from_least`` by a generator of pairwise comparisons."""
    i = zs.index(min(zs))
    run = zs[i:] + zs[:i]
    return all(a < b for a, b in zip(run, run[1:]))


def test_rises_from_least_matches_its_reference():
    for m in range(1, 6):
        for zs in itertools.product(range(1, 8), repeat=m):
            zs = list(zs)
            assert verifymod._rises_from_least(zs) == rises_from_least_reference(zs)
    # the cycles of every member found to p = 9 and of every witness to 40
    members = [
        sigma
        for p in range(3, 10)
        for q in range(2, p)
        for group in permclass.enumerate_by_profile(p, q).values()
        for sigma in group
    ] + [
        permclass.construct_witness(PermClassKey(p, q, r, s))
        for p in range(3, 41)
        for q in range(2, p)
        for r, s in PermClassKey.nonempty_profiles(p, q)
    ]
    for sigma in members:
        for cyc in sigma.cycles():
            for zs in (list(cyc), list(cyc[::-1])):
                assert verifymod._rises_from_least(zs) == rises_from_least_reference(zs)


#: every (a, b) that a lemma battery draws from
BATTERY_RANGES = sorted(
    {(3, 60), (0, 20), (3, 50), (-20, 20), (-3, 3)}
    | {(3, min(p, 8)) for p in range(3, 61)}
    | {(1, p - 1) for p in range(3, 61)}
    | {(2, p - 1) for p in range(3, 51)}
)


def test_the_draw_helper_is_randint():
    for seed in range(200):
        ours, theirs = random.Random(seed), random.Random(seed)
        for a, b in BATTERY_RANGES:
            for _ in range(3):
                assert verifymod._randint(ours.getrandbits, a, b) == theirs.randint(a, b)
        assert ours.getstate() == theirs.getstate()


#: each battery's draws of one instance, in order, through rng.randint and
#: rng.sample, as the batteries drew them before the draw helper
RANDINT_DRAWS = {
    "cyclic_order": lambda rng: [
        p := rng.randint(3, 60),
        m := rng.randint(3, min(p, 8)),
        rng.sample(range(1, p + 1), m),
        rng.randint(1, p - 1),
    ],
    "path_bound": lambda rng: [rng.randint(0, 20), rng.randint(0, 20)],
    "divisibility_gap": lambda rng: [
        p := rng.randint(3, 50),
        rng.randint(2, p - 1),
        rng.randint(-20, 20),
        rng.randint(-20, 20),
        rng.randint(-3, 3),
        rng.randint(-3, 3),
    ],
}


@pytest.mark.parametrize("battery", sorted(RANDINT_DRAWS))
def test_the_batteries_draw_the_randint_instances(monkeypatch, battery):
    # an instance is a fixed function of its draws, so equal draws (and
    # an equal generator state after them) mean equal instances
    drawn = []
    real_randint = verifymod._randint

    def randint(bits, a, b):
        drawn.append(real_randint(bits, a, b))
        return drawn[-1]

    monkeypatch.setattr(verifymod, "_randint", randint)
    rng = random.Random(verifymod.DEFAULT_SEED)
    real_sample = rng.sample

    def sample(population, k):
        drawn.append(real_sample(population, k))
        return drawn[-1]

    rng.sample = sample
    check = verifymod._LEMMA_BATTERIES[battery]
    ref = random.Random(verifymod.DEFAULT_SEED)
    for i in range(1000):
        del drawn[:]
        assert check(rng, permclass) is None
        assert drawn == RANDINT_DRAWS[battery](ref), (battery, i)
    assert rng.getstate() == ref.getstate()


def test_lemmas_catch_a_path_bound_check_that_passes_every_word(monkeypatch):
    monkeypatch.setattr(permclass, "path_bound_check", lambda word, r, s: True)
    bad = run_suite("lemmas", cases=2000, workers=1)
    assert bad.cases == 6000 and bad.failures >= 1
    assert bad.first_counterexample.startswith("path_bound: ")
    assert bad.first_counterexample.endswith("built path True, staircase True")


def test_witness_checks_the_profiles_it_walks_against_the_classes(monkeypatch):
    # a nonempty_profiles that drops the classes with r + s = p leaves
    # every walked witness valid, so only the comparison with the
    # class search catches it
    real = PermClassKey.nonempty_profiles

    def short(p, q):
        return [(r, s) for r, s in real(p, q) if r + s < p]

    good = run_suite("witness", p_max=9)
    assert good.passed and good.cases == 182
    monkeypatch.setattr(PermClassKey, "nonempty_profiles", staticmethod(short))
    bad = run_suite("witness", p_max=9)
    # one failed check for each of the 28 pairs, and no check added
    assert bad.cases == 112 and bad.failures == 28
    assert bad.first_counterexample == (
        "(p=3, q=2): the profiles walked miss the classes [(0, 3), (3, 0)] "
        "and add the empty ones []"
    )


def test_witness_suite_runs_the_construct_witness_of_its_module(monkeypatch):
    # the benchmark's tracer rebinds a route on its home module: the suite
    # must call what the module holds when it runs, not a copy taken earlier
    real = permclass.construct_witness
    calls = []

    def counted(key):
        calls.append(key)
        return real(key)

    monkeypatch.setattr(permclass, "construct_witness", counted)
    good = run_suite("witness", p_max=8)
    assert good.passed
    cases = build_cases("witness", p_max=8)
    assert len(calls) == sum(len(PermClassKey.nonempty_profiles(p, q)) for _, p, q in cases)
    monkeypatch.setattr(
        permclass, "construct_witness", lambda key: permclass.Permutation.identity(key.p)
    )
    bad = run_suite("witness", p_max=8)
    assert not bad.passed and bad.cases == good.cases
    assert bad.first_counterexample == "witness for (p=3, q=2, r=3, s=0) invalid"



def _wrong_cycle_count(real):
    def predict(key):
        rep = real(key)
        return permclass.StructureReport(rep.k + 1, rep.cycles_each, rep.sign)
    return predict


def _flipped_sign(real):
    def predict(key):
        rep = real(key)
        return permclass.StructureReport(rep.k, rep.cycles_each, -rep.sign)
    return predict


def _neighbouring_member(real):
    # the member of the next nonempty class of (p, q), in walk order
    def construct(key):
        profiles = PermClassKey.nonempty_profiles(key.p, key.q)
        i = profiles.index((key.r, key.s))
        r, s = profiles[(i + 1) % len(profiles)]
        return real(PermClassKey(key.p, key.q, r, s))
    return construct


@pytest.mark.parametrize("route, mutant", [
    ("predict_structure", _wrong_cycle_count),
    ("predict_structure", _flipped_sign),
    ("construct_witness", _neighbouring_member),
])
def test_witness_suite_catches_each_fault_without_the_class_search(
    monkeypatch, route, mutant
):
    # above EXHAUSTIVE_PMAX no class is searched, so the profile, cycle
    # and sign checks alone must fail every witness the fault touches,
    # the identity's included
    good = run_suite("witness", p_max=12)
    assert good.passed
    monkeypatch.setattr(permclass, route, mutant(getattr(permclass, route)))
    bad = run_suite("witness", p_max=12)
    assert not bad.passed and bad.cases == good.cases
    above = [c for c in build_cases("witness", p_max=12)
             if c[1] > verifymod.EXHAUSTIVE_PMAX]
    assert len(above) == 8 + 9 + 10
    for _, p, q in above:
        checks, failures, first = run_case(("witness", p, q))
        assert failures == checks, (p, q)
        # the walk starts at (0, 0)
        assert first == f"witness for (p={p}, q={q}, r=0, s=0) invalid"


@pytest.mark.parametrize("suite, size", [
    ("support", {"p_max": 5}),
    ("sign", {"p_max": 5}),
    ("cycle", {"p_max": 5}),
    ("witness", {"p_max": 8}),
    ("permanent", {"p_max": 6}),
    ("prime", {"p_max": 10}),
    ("lemmas", {"cases": 64}),
])
def test_a_suite_imports_its_routes_before_it_forks(suite, size):
    # run_suite imports the suite's modules in the parent, so the forked
    # children find them loaded and compile nothing
    script = (
        "import sys\n"
        "from tricirc import verify\n"
        "real, seen = verify._fan_out, []\n"
        "def fan_out(case_list, width):\n"
        "    seen.append(set(sys.modules))\n"
        "    return real(case_list, width)\n"
        "verify._fan_out = fan_out\n"
        f"res = verify.run_suite({suite!r}, workers=2, **{size!r})\n"
        "late = sorted(set(sys.modules) - seen[0])\n"
        f"routes = [m for m in verify._SUITES[{suite!r}].modules\n"
        "          if 'tricirc.' + m not in seen[0]]\n"
        "print(res.passed, late, routes)\n"
    )
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "True [] []\n"


def test_results_record_their_parameters():
    # the prime suite must say which q the congruence uses
    res = run_suite("prime", p_max=6)
    assert res.parameters == {"p_max": 6, "q": 2}
    res = run_suite("lemmas", cases=120)
    assert res.parameters["cases_per_battery"] == 120
    res = run_suite("sign", p_max=5, q_policy="coprime")
    assert res.parameters == {"p_max": 5, "q_policy": "coprime"}


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        build_cases("everything")
    with pytest.raises(ValueError):
        build_cases("support", q_policy="random")


def test_lemmas_need_at_least_one_case():
    for cases in (0, -5):
        with pytest.raises(ValueError):
            build_cases("lemmas", cases=cases)


def test_sweeps_need_pmax_at_least_3():
    for suite in SUITES:
        if suite != "lemmas":
            with pytest.raises(ValueError):
                build_cases(suite, p_max=2)
    assert build_cases("sign", p_max=3) == [("sign", 3, 2)]


def test_a_size_the_suite_does_not_read_is_refused():
    # lemmas is sized by cases and seed, every other suite by p_max
    with pytest.raises(ValueError, match="the lemmas suite does not read pmax"):
        build_cases("lemmas", p_max=40)
    for suite in SUITES:
        if suite != "lemmas":
            for extra in ({"cases": 5}, {"seed": 3}):
                with pytest.raises(ValueError, match="does not read") as info:
                    build_cases(suite, **extra)
                assert not isinstance(info.value, TooLarge)
    # prime and lemmas sweep no (p, q) pairs, so they refuse a q policy
    # other than the default
    for suite in ("prime", "lemmas"):
        with pytest.raises(ValueError, match=f"the {suite} suite does not read q-policy"):
            build_cases(suite, q_policy="coprime")
        assert build_cases(suite, q_policy="all") == build_cases(suite)


def test_cycle_suite_guards_pmax():
    with pytest.raises(TooLarge):
        build_cases("cycle", p_max=12)


def test_coprime_policy_thins_the_sweep():
    full = build_cases("sign", p_max=8)
    thin = build_cases("sign", p_max=8, q_policy="coprime")
    assert len(thin) < len(full)
    assert all((p, q) != (8, 6) for _, p, q in thin)


def test_failed_check_is_counted_with_its_counterexample(monkeypatch):
    real = phimod.trial_division
    monkeypatch.setattr(phimod, "trial_division", lambda n: n == 9 or real(n))
    res = run_suite("prime", p_max=10)
    assert (res.cases, res.failures) == (8, 1)
    assert res.first_counterexample == (
        "p=9: congruence check False, trial division True"
    )


@pytest.mark.parametrize("name", ["bounds_report", "permanent_ryser"])
def test_crashed_case_is_one_failed_check(monkeypatch, name):
    # a raise discards the checks the case had already passed
    def crash(p, q):
        raise RuntimeError("boom")

    monkeypatch.setattr(permmod, name, crash)
    assert run_case(("permanent", 5, 2)) == (
        1, 1, "_permanent_case(5, 2): RuntimeError('boom')"
    )


def test_largest_sizes_are_admitted_and_one_more_is_refused():
    for suite, size, over in (
        ("support", {"p_max": 50}, {"p_max": 51}),
        ("witness", {"p_max": 60}, {"p_max": 61}),
        ("sign", {"p_max": 23}, {"p_max": 24}),
        ("permanent", {"p_max": 18}, {"p_max": 19}),
        ("lemmas", {"cases": verifymod.LEMMA_CASES_LIMIT},
         {"cases": verifymod.LEMMA_CASES_LIMIT + 1}),
    ):
        assert build_cases(suite, **size)
        with pytest.raises(TooLarge):
            build_cases(suite, **over)


def test_every_suite_is_sized_by_its_row():
    # one size rule for every row: lemmas is sized by cases, every other
    # suite by pmax, each between its least size and its row's largest
    for suite, row in verifymod._SUITES.items():
        arg, flag, least = ("cases", "cases", 1) if suite == "lemmas" else ("p_max", "pmax", 3)
        assert verifymod.suite_parameters(suite, **{arg: row.largest})
        with pytest.raises(TooLarge, match=f"^the {suite} suite needs {flag} <= {row.largest}$"):
            verifymod.suite_parameters(suite, **{arg: row.largest + 1})
        too_small = f"^{flag} must be at least {least}, got {least - 1}$"
        with pytest.raises(ValueError, match=too_small) as info:
            verifymod.suite_parameters(suite, **{arg: least - 1})
        assert type(info.value) is ValueError, suite


def test_every_route_reaches_every_case_of_the_largest_run():
    # the case functions call their routes without asking whether they
    # reach, so no admitted case may be one that a route refuses
    def largest(suite):
        return verifymod._SUITES[suite][1]

    # sign runs Bareiss and the DP, permanent Ryser and the DP
    for suite, limit in (("sign", BAREISS_LIMIT), ("permanent", RYSER_LIMIT)):
        for _, p, q in build_cases(suite, p_max=largest(suite)):
            assert dp_cost(p, q) <= DP_BUDGET, (suite, p, q)
            assert p <= limit, (suite, p, q)
    for _, p, q, backend in build_cases("support", p_max=largest("support")):
        if backend == "cycle_cover":
            assert dp_cost(p, q) <= DP_BUDGET, (p, q)


def test_benchmark_tracer_installs_and_runs_the_lemmas(capsys, monkeypatch):
    # the benchmark's tracer names kernels the package no longer has; it
    # must still install, and the path_bound battery's routes must show
    path = Path(__file__).resolve().parent.parent / "benchmark" / "tracer.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracer", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    from tricirc import cli

    monkeypatch.setenv(cli.WORKERS_ENV, "1")
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        code = cli.run(["verify", "--suite", "lemmas", "--cases", "10"])
    finally:
        tracing.uninstall(undo)
    assert code == 0
    assert capsys.readouterr().out == (
        "suite=lemmas cases_per_battery=10 seed=90437 cases=30 failures=0\n"
    )
    assert {"verify.run_suite", "verify.run_case.lemmas"} <= {span[1] for span in tracer.spans}
    rolled = {name for _, name, _ in tracer.rollups}
    assert {"permclass.build_path", "permclass.path_bound_check"} <= rolled
