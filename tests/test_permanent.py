"""Permanent values, Ryser agreement and the exact two-sided bounds."""

from fractions import Fraction

import pytest

from polytext import parse
from tricirc import cli
from tricirc import permanent as permmod
from tricirc.bipoly import BiPoly
from tricirc.errors import InternalInconsistency, TooLarge
from tricirc.permanent import (
    bounds_report,
    growth_table,
    growth_table_csv,
    permanent_generating,
    permanent_ryser,
)
from tricirc.phi import phi_polynomial


class TestGenerating:
    def test_unsigned_5_3(self):
        assert permanent_generating(5, 3) == parse(
            "1 + x^5 + 5*x^2*y + 5*x*y^3 + y^5"
        )

    def test_unsigned_8_3(self):
        assert permanent_generating(8, 3) == parse(
            "1 + x^8 + 8*x^5*y + 12*x^2*y^2 + 2*x^4*y^4 + 8*x*y^5 + y^8"
        )

    def test_unsigned_3_2(self):
        assert permanent_generating(3, 2) == parse("1 + x^3 + 3*x*y + y^3")

    def test_termwise_abs_of_determinant(self):
        for p, q in ((6, 4), (9, 5), (10, 7)):
            assert permanent_generating(p, q) == phi_polynomial(p, q).termwise_abs()


class TestRyser:
    def test_abs_sums_of_published_polynomials(self):
        assert permanent_ryser(5, 3) == 13
        assert permanent_ryser(8, 3) == 33
        assert permanent_ryser(3, 2) == 6

    def test_matches_generating_eval(self):
        for p in range(3, 13):
            for q in range(2, p):
                assert permanent_ryser(p, q) == permanent_generating(p, q).evaluate(1, 1)

    def test_size_guard(self):
        with pytest.raises(TooLarge):
            permanent_ryser(25, 3)


class TestBounds:
    def test_report_5_3(self):
        rep = bounds_report(5, 3)
        assert rep.d11 == 13 == rep.abs_sum
        assert rep.max_coeff == 5 and rep.n_monomials == 5
        assert rep.lower_bound == Fraction(5832, 625)  # ~9.33
        assert rep.lower_ok and rep.upper_ok and rep.sandwich_ok
        assert rep.upper_bound == 20  # ceil(6^(5/3))

    def test_report_8_3(self):
        rep = bounds_report(8, 3)
        assert rep.d11 == 33
        assert 33**3 == 35937 <= 6**8 == 1679616
        assert rep.upper_ok

    def test_equality_edge_3_2(self):
        rep = bounds_report(3, 2)
        assert rep.d11 == 6
        assert rep.lower_bound == 6  # 27 * 6 / 27
        assert rep.lower_ok and rep.upper_ok  # both bounds tight here
        assert rep.upper_bound == 6

    def test_large_p_uses_dp_route(self):
        rep = bounds_report(22, 3)
        assert rep.d11 == rep.abs_sum
        assert rep.lower_ok and rep.upper_ok

    def test_ceil_cube_root_is_exact_at_large_cubes(self):
        c = 2**400 + 12345
        assert permmod._ceil_cube_root(c**3 - 1) == c
        assert permmod._ceil_cube_root(c**3) == c
        assert permmod._ceil_cube_root(c**3 + 1) == c + 1
        for n in range(200):
            c = permmod._ceil_cube_root(n)
            assert (c - 1) ** 3 < n <= c**3 or n == c == 0

    def test_d11_comes_from_the_dp_without_ryser(self, monkeypatch):
        def no_ryser(p, q):
            raise AssertionError("Ryser must not run")

        monkeypatch.setattr(permmod, "permanent_ryser", no_ryser)
        rep = bounds_report(20, 19)
        assert rep.d11 == rep.abs_sum == permanent_generating(20, 19).evaluate(1, 1)

    def test_dp_is_checked_term_by_term(self, monkeypatch):
        # 12 and 2 swapped: the sum, and so d11, is still 33
        swapped = parse(
            "1 + x^8 + 8*x^5*y + 2*x^2*y^2 + 12*x^4*y^4 + 8*x*y^5 + y^8"
        )
        assert swapped != permanent_generating(8, 3)
        monkeypatch.setattr(permmod, "permanent_generating", lambda p, q: swapped)
        with pytest.raises(InternalInconsistency):
            bounds_report(8, 3)

    def test_dp_backend_takes_d11_from_ryser(self, monkeypatch):
        def no_dp(p, q):
            raise AssertionError("the unsigned DP must not give d11")

        monkeypatch.setattr(permmod, "permanent_generating", no_dp)
        assert bounds_report(8, 3, "cycle_cover").d11 == 33
        # a wrong Ryser value is caught against the DP's own polynomial
        monkeypatch.setattr(permmod, "permanent_ryser", lambda p, q: 34)
        with pytest.raises(InternalInconsistency):
            bounds_report(8, 3, "cycle_cover")

    @pytest.mark.parametrize("off", [1, -1])
    def test_printed_upper_bound_is_checked(self, monkeypatch, off):
        ceil_cube_root = permmod._ceil_cube_root
        assert ceil_cube_root(6**10) == 393
        monkeypatch.setattr(
            permmod, "_ceil_cube_root", lambda n: ceil_cube_root(n) + off
        )
        with pytest.raises(InternalInconsistency, match="upper bound"):
            cli.run(["permanent", "--p", "10", "--q", "3"])


class TestGrowth:
    def test_rows_q3(self):
        rows = {r.p: r for r in growth_table(3, 8)}
        assert rows[5].max_coeff == 5
        assert f"{rows[5].root:.2f}" == "1.38"
        assert rows[8].max_coeff == 12
        assert f"{rows[8].root:.2f}" == "1.36"
        assert all(r.sandwich_ok for r in rows.values())

    def test_row_q2_p3(self):
        rows = growth_table(2, 3)
        assert len(rows) == 1 and rows[0].max_coeff == 3

    def test_csv_shape(self):
        text = growth_table_csv(growth_table(3, 6))
        lines = text.split("\n")
        assert lines[0] == "p,q,M,d11,n_monomials,root"
        assert lines[1] == "4,3,4,9,5,1.4142"
        assert text.endswith("\n") and not text.endswith("\n\n")
        assert all(line == line.rstrip() for line in lines)

    def test_root_of_a_coefficient_past_float_range(self, monkeypatch):
        big = 10**401
        monkeypatch.setattr(
            permmod,
            "permanent_generating",
            lambda p, q: BiPoly({(0, 0): 1, (p, 0): 1, (1, 1): big}),
        )
        (row,) = growth_table(2, 3)
        assert row.max_coeff == big
        assert row.root == pytest.approx(10 ** (401 / 3))

    def test_pmax_validation(self):
        with pytest.raises(ValueError):
            growth_table(5, 4)
