"""Support predicate, coefficient reports and the primality congruence."""

import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from polytext import parse
from tricirc.bipoly import ONE, BiPoly
from tricirc.circulant import CirculantSpec, det_bruteforce
from tricirc.phi import (
    PRIMALITY_Q,
    CoefficientReport,
    binomial_power,
    coefficient,
    phi_polynomial,
    primality_check,
    support,
    trial_division,
)


class TestSupport:
    def test_published_examples(self):
        assert support(8, 3, 5, 1)        # the -8 x^5 y term
        assert not support(5, 3, 1, 1)    # 5 does not divide 4
        assert support(7, 3, 0, 0)        # constant term

    def test_pure_x_terms_need_r_in_0_p(self):
        assert support(7, 3, 7, 0)
        assert not support(7, 3, 3, 0)

    def test_degree_cap(self):
        assert not support(5, 3, 4, 2)  # divisible but r+s > p

    def test_derived_support_set_7_3(self):
        expected = {(0, 0), (7, 0), (4, 1), (1, 2), (2, 4), (0, 7)}
        got = {
            (r, s)
            for r in range(8)
            for s in range(8)
            if support(7, 3, r, s)
        }
        assert got == expected
        poly = det_bruteforce(CirculantSpec(7, 3))
        assert {(m.r, m.s) for m in poly.terms} == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            support(5, 1, 0, 0)
        with pytest.raises(ValueError):
            support(5, 3, -1, 0)


class TestCoefficient:
    def test_negative_term_8_3_2_2(self):
        rep = coefficient(8, 3, 2, 2)
        assert (rep.present, rep.ell, rep.k) == (True, 1, 1)
        assert (rep.sign, rep.magnitude, rep.value) == (-1, 12, -12)

    def test_positive_term_8_3_4_4(self):
        rep = coefficient(8, 3, 4, 4)
        assert (rep.ell, rep.k, rep.sign, rep.magnitude) == (2, 2, 1, 2)

    def test_term_5_3_2_1(self):
        rep = coefficient(5, 3, 2, 1)
        assert (rep.sign, rep.magnitude, rep.value) == (-1, 5, -5)

    def test_absent_term(self):
        rep = coefficient(5, 3, 1, 1)
        assert not rep.present
        assert rep.ell is rep.k is rep.sign is None
        assert rep.magnitude == 0 == rep.value

    def test_constant_term(self):
        rep = coefficient(5, 3, 0, 0)
        assert (rep.present, rep.ell, rep.k, rep.sign, rep.value) == (
            True, 0, 0, 1, 1,
        )

    def test_value_semantics(self):
        rep = coefficient(8, 3, 2, 2)
        assert repr(rep) == (
            "CoefficientReport(p=8, q=3, r=2, s=2, present=True, ell=1, k=1, "
            "sign=-1, magnitude=12, value=-12)"
        )
        fields = (8, 3, 2, 2, True, 1, 1, -1, 12, -12)
        assert rep == CoefficientReport(*fields) == CoefficientReport(
            p=8, q=3, r=2, s=2, present=True, ell=1, k=1, sign=-1,
            magnitude=12, value=-12,
        )
        assert hash(rep) == hash(fields) and rep != fields
        with pytest.raises(AttributeError):
            rep.value = 12
        assert repr(coefficient(5, 3, 1, 1)) == (
            "CoefficientReport(p=5, q=3, r=1, s=1, present=False, ell=None, "
            "k=None, sign=None, magnitude=0, value=0)"
        )

    def test_json_mirrors_fields(self):
        d = coefficient(8, 3, 5, 1).to_json_dict()
        assert d["value"] == "-8" and d["magnitude"] == "8" and d["sign"] == -1


class TestPhiPolynomial:
    def test_backends_agree_on_7_3(self):
        ref = phi_polynomial(7, 3, "bruteforce")
        assert phi_polynomial(7, 3, "newton") == ref
        assert phi_polynomial(7, 3, "bareiss") == ref
        assert phi_polynomial(7, 3, "cycle_cover") == ref

    def test_default_backend_rule(self):
        res = subprocess.run(
            [sys.executable, "-m", "tricirc", "phi", "--p", "65", "--q", "3",
             "--format", "json"],
            capture_output=True, text=True, check=True,
        )
        assert json.loads(res.stdout)["backend"] == "newton"
        default = phi_polynomial(65, 3)
        assert default == phi_polynomial(65, 3, "bareiss")
        assert default == phi_polynomial(65, 3, "cycle_cover")

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            phi_polynomial(5, 3, "cofactor")

    @pytest.mark.parametrize("backend", ["bareiss", "cycle_cover", "bruteforce"])
    def test_cross_check_is_looked_up_at_call_time(self, monkeypatch, backend):
        # a rebinding of the route in its home module (as an outside
        # tracer does) is what the backend table calls
        from tricirc import circulant

        marker = parse("1 - x")
        monkeypatch.setattr(circulant, f"det_{backend}", lambda spec: marker)
        assert phi_polynomial(5, 3, backend) is marker


class TestPrimality:
    def test_binomial_power(self):
        assert binomial_power(5) == parse(
            "x^5 + 5*x^4*y + 10*x^3*y^2 + 10*x^2*y^3 + 5*x*y^4 + y^5"
        )

    def test_binomial_power_equals_the_comb_row(self):
        for p in [*range(201), 1000]:
            row = BiPoly({(r, p - r): math.comb(p, r) for r in range(p + 1)})
            assert binomial_power(p) == row, p

    def test_published_examples(self):
        assert primality_check(5)
        assert not primality_check(8)
        assert not primality_check(9)

    def test_matches_trial_division(self):
        for p in range(3, 26):
            assert primality_check(p) == trial_division(p)

    @staticmethod
    def congruence(p, q):
        # the congruence of primality_check, at any q
        return (ONE - phi_polynomial(p, q) - binomial_power(p)).reduce_mod(p).is_zero()

    def test_primes_pass_for_other_q_too(self):
        assert PRIMALITY_Q == 2 and primality_check(7)
        assert self.congruence(7, 2) and self.congruence(7, 5)

    def test_congruence_is_q_sensitive_for_composites(self):
        # p=9 fails the congruence at the fixed q=2, as it must, but
        # passes it at q=4; this is why the q is pinned
        assert not primality_check(9) and not self.congruence(9, 2)
        assert self.congruence(9, 4)

    def test_trial_division_basics(self):
        primes = [n for n in range(2, 60) if trial_division(n)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
        assert not trial_division(0) and not trial_division(1)

    def test_congruence_needs_p_at_least_3(self):
        # p = 2 has no q with 2 <= q <= p - 1
        with pytest.raises(ValueError, match="p must be at least 3"):
            primality_check(2)


def test_benchmark_tracer_sees_the_default_route(capsys):
    # the benchmark's per-layer trace wraps the public functions of phi,
    # the home of Newton's identities, so the default route has spans
    path = Path(__file__).resolve().parent.parent / "benchmark" / "tracer.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracer", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    from tricirc import cli

    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        code = cli.run(["phi", "--p", "12", "--q", "5"])
    finally:
        tracing.uninstall(undo)
    assert code == 0 and capsys.readouterr().out
    names = {span[1] for span in tracer.spans}
    assert {"phi.phi_polynomial", "phi.det_newton", "phi.power_sums"} <= names
