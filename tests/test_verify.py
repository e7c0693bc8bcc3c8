"""The verification harness itself: suite plumbing and small sweeps."""

import pytest

from tricirc import phi as phimod
from tricirc import verify as verifymod
from tricirc.circulant import BAREISS_LIMIT, check_dp_budget
from tricirc.errors import TooLarge
from tricirc.permanent import RYSER_LIMIT
from tricirc.verify import SUITES, build_cases, run_case, run_suite


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


def test_merge_preserves_first_counterexample_order():
    # two workers merge their outcomes into the one-worker result
    for suite, size in (("prime", {"p_max": 10}), ("witness", {"p_max": 14}),
                        ("lemmas", {"cases": 200})):
        seq = run_suite(suite, **size, workers=1)
        assert run_suite(suite, **size, workers=2) == seq
        assert seq.passed and seq.cases > 0


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

    monkeypatch.setattr(verifymod, name, crash)
    out = run_case(("permanent", 5, 2))
    assert (out.checks, out.failures) == (1, 1)
    assert out.first == "_permanent_case(5, 2): RuntimeError('boom')"


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


def test_every_route_reaches_every_case_of_the_largest_run():
    # the case functions call their routes without asking whether they
    # reach, so no admitted case may be one that a route refuses
    def largest(suite):
        return verifymod._SUITES[suite][1]

    # sign runs Bareiss and the DP, permanent Ryser and the DP
    for suite, limit in (("sign", BAREISS_LIMIT), ("permanent", RYSER_LIMIT)):
        for _, p, q in build_cases(suite, p_max=largest(suite)):
            check_dp_budget(p, q)
            assert p <= limit, (suite, p, q)
    for _, p, q, backend in build_cases("support", p_max=largest("support")):
        if backend == "cycle_cover":
            check_dp_budget(p, q)
