"""Permanent values, Ryser agreement and the exact two-sided bounds."""

import importlib.util
from math import exp, log
from pathlib import Path

import pytest

from polytext import parse
from test_circulant import integer_det
from tricirc import circulant, cli
from tricirc import phi as phimod
from tricirc import permanent as permmod
from tricirc.circulant import cover_count_rows, cycle_cover_counts
from tricirc.errors import InternalInconsistency, TooLarge
from tricirc.permanent import (
    GrowthRow,
    bounds_report,
    growth_table,
    growth_table_csv,
    permanent_ryser,
)
from tricirc.phi import NEWTON_LIMIT, phi_polynomial


def benchmark_growth_pmax() -> dict:
    """q -> largest growth-table pmax in the benchmark's catalogue."""
    path = Path(__file__).resolve().parent.parent / "benchmark" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.GROWTH_PMAX


def stepped_d11(q, p_max):
    """p -> d11(p, q) for every growth row up to p_max, from q x q determinants alone.

    C_{a,b} is the companion matrix of lambda^q - a lambda^(q-1) - b.
    det(I - C_{a,b}^p) is the circulant's determinant at x = a, y = b,
    and det(I + C_{a,b}^p) the same with the wrapped band entries
    negated; over a, b = +-1 the sign rule turns a quarter of their sum,
    less the determinant at (1, 1), into the sum of |a(r, s)|.  Each row
    steps every power once: C X moves X up one row and writes
    b X[0] + a X[q-1] below.
    """
    signs = [(a, b) for a in (1, -1) for b in (1, -1)]
    powers = {ab: [[int(i == j) for j in range(q)] for i in range(q)] for ab in signs}
    out = {}
    for p in range(1, p_max + 1):
        for (a, b), x in powers.items():
            x.append([b * u + a * v for u, v in zip(x.pop(0), x[-1])])
        if p < max(3, q + 1):
            continue

        def det(ab, e):
            x = powers[ab]
            return integer_det([[int(i == j) - e * x[i][j] for j in range(q)] for i in range(q)])

        total = sum(det(ab, 1) + det(ab, -1) for ab in signs)
        assert total % 4 == 0, (p, q, total)
        out[p] = total // 4 - det((1, 1), 1)
    return out


#: (q, pmax) of the growth tables checked row by row: the benchmark's and four more
GROWTH_TABLES = [*benchmark_growth_pmax().items(), (8, 30), (9, 20), (11, 26), (12, 23)]


def dp_growth_rows(q, p_max):
    """Reference rows from the unsigned DP alone, the sandwich rule restated."""
    rows = []
    for p in range(max(3, q + 1), p_max + 1):
        gen = cycle_cover_counts(p, q)
        d11, m, n = gen.evaluate(1, 1), gen.max_abs_coefficient(), len(gen)
        rows.append(GrowthRow(p, q, m, d11, n, exp(log(m) / p), d11 <= m * n and m <= d11))
    return rows


class TestGenerating:
    def test_unsigned_5_3(self):
        assert cycle_cover_counts(5, 3) == parse(
            "1 + x^5 + 5*x^2*y + 5*x*y^3 + y^5"
        )

    def test_unsigned_8_3(self):
        assert cycle_cover_counts(8, 3) == parse(
            "1 + x^8 + 8*x^5*y + 12*x^2*y^2 + 2*x^4*y^4 + 8*x*y^5 + y^8"
        )

    def test_unsigned_3_2(self):
        assert cycle_cover_counts(3, 2) == parse("1 + x^3 + 3*x*y + y^3")

    def test_termwise_abs_of_determinant(self):
        for p, q in ((6, 4), (9, 5), (10, 7)):
            assert cycle_cover_counts(p, q) == phi_polynomial(p, q).termwise_abs()


def gray_code_ryser(p, q):
    """Ryser's formula in Gray-code order, patching a running product.

    Toggling column j changes the sums of exactly the three rows j,
    j-1 and j-q (mod p); the product of the nonzero row sums is updated
    by one exact division and one multiplication.
    """
    rows_of_col = [(j, (j - 1) % p, (j - q) % p) for j in range(p)]
    sums = [0] * p
    prod = 1       # product of the nonzero row sums
    zeros = p      # number of zero row sums
    sign = 1       # (-1)^{|subset|}
    total = 0
    for m in range(1, 1 << p):
        col = (m & -m).bit_length() - 1
        gray = m ^ (m >> 1)
        delta = 1 if gray >> col & 1 else -1
        for i in rows_of_col[col]:
            old = sums[i]
            new = old + delta
            sums[i] = new
            if old == 0:
                zeros -= 1
                prod *= new
            elif new == 0:
                zeros += 1
                prod //= old
            else:
                prod = prod // old * new
        sign = -sign
        if zeros == 0:
            total += sign * prod
    return total if p % 2 == 0 else -total


def bitmask_ryser(p, q):
    """Ryser's formula over every column bitmask, tallying each term.

    With b and c the rotations of m by 1 and by q, row i's sum counts
    bit i of m, b and c; a term with every row sum nonzero is
    +-2^a 3^t, a rows summing to 2 and t to 3.
    """
    full = (1 << p) - 1
    low = (1 << q) - 1
    tally = {}
    for m in range(1, 1 << p):
        b = m >> 1 | (m & 1) << (p - 1)
        c = m >> q | (m & low) << (p - q)
        if m | b | c != full:
            continue
        three = (m & b & c).bit_count()
        two = (m & b | m & c | b & c).bit_count() - three
        key = (two, three, m.bit_count() & 1)
        tally[key] = tally.get(key, 0) + 1
    return sum(n * 2**a * 3**t * (-1) ** (p + i) for (a, t, i), n in tally.items())


class TestNecklaceRyser:
    def test_matches_the_bitmask_reference(self):
        # TestRyser checks the same range against the Gray-code reference
        for p in range(3, 17):
            for q in range(2, p):
                assert permanent_ryser(p, q) == bitmask_ryser(p, q), (p, q)

    @pytest.mark.parametrize("p, q", [(20, 7), (24, 12)])
    def test_matches_the_dp_at_large_p(self, p, q):
        assert permanent_ryser(p, q) == cycle_cover_counts(p, q).evaluate(1, 1)


class TestRyser:
    def test_matches_gray_code_reference(self):
        for p in range(3, 17):
            for q in range(2, p):
                assert permanent_ryser(p, q) == gray_code_ryser(p, q), (p, q)

    def test_abs_sums_of_published_polynomials(self):
        assert permanent_ryser(5, 3) == 13
        assert permanent_ryser(8, 3) == 33
        assert permanent_ryser(3, 2) == 6

    def test_matches_generating_eval(self):
        for p in range(3, 13):
            for q in range(2, p):
                assert permanent_ryser(p, q) == cycle_cover_counts(p, q).evaluate(1, 1)

    def test_size_guard(self):
        with pytest.raises(TooLarge):
            permanent_ryser(25, 3)


class TestBounds:
    def test_report_5_3(self):
        rep = bounds_report(5, 3)
        assert rep.d11 == 13 == rep.abs_sum
        assert rep.max_coeff == 5 and rep.n_monomials == 5
        bound = rep.lower_bound  # ~9.33
        assert (bound.numerator, bound.denominator) == (5832, 625)
        assert str(bound) == "5832/625"
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
        bound = rep.lower_bound  # 27 * 6 / 27
        assert (bound.numerator, bound.denominator) == (6, 1) and str(bound) == "6"
        assert rep.lower_ok and rep.upper_ok  # both bounds tight here
        assert rep.upper_bound == 6

    def test_d11_at_q2_is_the_lucas_number_plus_two(self):
        # the permanent of I + P + P^2 is L_p + 2 (Minc, Permanents, 1978)
        lucas = [2, 1]
        while len(lucas) <= 200:
            lucas.append(lucas[-1] + lucas[-2])
        for p in [*range(3, 41), 100, 200]:
            assert bounds_report(p, 2).d11 == lucas[p] + 2, p

    @pytest.mark.parametrize("q", (2, 3))
    def test_growth_rate_is_the_largest_root(self, q):
        # d11^(1/p) tends to the largest real root of l^q - l^(q-1) - 1
        # (Minc, LAA 71, 1985; Boyd, 1981): 1.618034 at q = 2, 1.465571 at 3
        lo, hi = 1.0, 2.0  # f(1) = -1 < 0 < f(2), and f rises past 1
        for _ in range(100):
            mid = (lo + hi) / 2
            if mid ** q - mid ** (q - 1) - 1 < 0:
                lo = mid
            else:
                hi = mid
        assert abs(exp(log(bounds_report(300, q).d11) / 300) - lo) < 1e-5

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
            pytest.fail("Ryser must not run")

        monkeypatch.setattr(permmod, "permanent_ryser", no_ryser)
        rep = bounds_report(20, 19)
        assert rep.d11 == rep.abs_sum == cycle_cover_counts(20, 19).evaluate(1, 1)

    def test_dp_is_checked_term_by_term(self, monkeypatch):
        # 12 and 2 swapped: the sum, and so d11, is still 33
        swapped = parse(
            "1 + x^8 + 8*x^5*y + 2*x^2*y^2 + 12*x^4*y^4 + 8*x*y^5 + y^8"
        )
        assert swapped != cycle_cover_counts(8, 3)
        monkeypatch.setattr(circulant, "cycle_cover_counts", lambda p, q: swapped)
        with pytest.raises(InternalInconsistency):
            bounds_report(8, 3)

    def test_dp_backend_takes_d11_from_ryser(self, monkeypatch):
        # the DP runs once, as the signed route det_cycle_cover; it does
        # not run a second time to give d11
        real = circulant.cycle_cover_counts
        calls = []
        monkeypatch.setattr(
            circulant, "cycle_cover_counts", lambda p, q: calls.append((p, q)) or real(p, q)
        )
        assert bounds_report(8, 3, "cycle_cover").d11 == 33
        assert calls == [(8, 3)]
        # a wrong Ryser value is caught against the DP's own polynomial
        monkeypatch.setattr(permmod, "permanent_ryser", lambda p, q: 34)
        with pytest.raises(InternalInconsistency):
            bounds_report(8, 3, "cycle_cover")

    @pytest.mark.parametrize("off", [1, -1])
    def test_printed_upper_bound_is_checked(self, monkeypatch, capsys, off):
        ceil_cube_root = permmod._ceil_cube_root
        assert ceil_cube_root(6**10) == 393
        monkeypatch.setattr(
            permmod, "_ceil_cube_root", lambda n: ceil_cube_root(n) + off
        )
        assert cli.run(["permanent", "--p", "10", "--q", "3"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"error: upper bound {393 + off} is not ceil(6^(10/3))"]


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

        counts = permmod._counts

        def stub(p, q, signed, unsigned):
            _, _, n_monomials, sandwich_ok = counts(p, q, signed, unsigned)
            return big + 2, big, n_monomials, sandwich_ok

        monkeypatch.setattr(permmod, "_counts", stub)
        (row,) = growth_table(2, 3)
        assert row.max_coeff == big and row.d11 == big + 2
        assert row.root == pytest.approx(10 ** (401 / 3))

    @pytest.mark.parametrize("q, p_max", GROWTH_TABLES)
    def test_rows_match_the_dp_alone(self, q, p_max):
        assert growth_table(q, p_max) == dp_growth_rows(q, p_max)

    @pytest.mark.parametrize("q, p_max", GROWTH_TABLES)
    def test_d11_matches_the_stepped_companion_determinants(self, q, p_max):
        assert {row.p: row.d11 for row in growth_table(q, p_max)} == stepped_d11(q, p_max)

    # (23, 12) runs at its image 1/12 = 2, a 3-bit window, not 13 bits; no
    # row of (8, 14) reaches 2q - 1
    @pytest.mark.parametrize(
        "q, p_max, walk", [(12, 23, None), (8, 66, (8, 15, 66)), (8, 14, None)]
    )
    def test_table_walks_only_where_it_is_cheaper(self, monkeypatch, q, p_max, walk):
        kernel = circulant._cover_count_rows
        walks = []

        def record(q, p_lo, p_hi):
            if p_lo < p_hi:
                walks.append((q, p_lo, p_hi))
            return kernel(q, p_lo, p_hi)

        monkeypatch.setattr(circulant, "_cover_count_rows", record)
        cycle_cover_counts.cache_clear()
        growth_table(q, p_max)
        assert walks == ([walk] if walk else [])

    def test_walk_starts_after_both_refusals(self, monkeypatch):
        def no_walk(q, p_lo, p_hi):
            pytest.fail(f"walk of p={p_lo}..{p_hi} started before the refusal")

        # both tables would walk if admitted: the budget's refusal names the
        # walk it priced
        assert cover_count_rows(3, 4, 21)
        monkeypatch.setattr(circulant, "_cover_count_rows", no_walk)
        with pytest.raises(TooLarge, match=r"p=13\.\.36, q=12 \(one walk from p=23\)"):
            growth_table(12, 36)
        monkeypatch.setattr(permmod, "NEWTON_LIMIT", 20)
        with pytest.raises(TooLarge, match="limited to p <= 20"):
            growth_table(3, 21)

    @pytest.mark.parametrize("q, p_max", {
        2: 1000, 3: 1000, 4: 1000, 5: 1000, 6: 712, 7: 454,
        8: 283, 9: 174, 10: 104, 11: 62, 12: 35,
    }.items())
    def test_longest_table_the_plan_admits(self, monkeypatch, q, p_max):
        # up to q = 5 NEWTON_LIMIT ends the table, past it the DP budget;
        # the walk, the rows' own DPs, Newton and the checks are stubbed,
        # so only the table's price is computed
        walks = []

        def record(q, p_lo, p_hi):
            walks.append((q, p_lo, p_hi))
            return [{}] * (p_hi - p_lo + 1)

        monkeypatch.setattr(circulant, "_cover_count_rows", record)
        monkeypatch.setattr(circulant, "cycle_cover_counts", lambda p, q: None)
        monkeypatch.setattr(phimod, "phi_polynomial", lambda p, q: None)
        monkeypatch.setattr(permmod, "_counts", lambda *args: (1, 1, 1, True))
        assert len(growth_table(q, p_max)) == p_max - max(2, q)
        assert walks == [(q, 2 * q - 1, p_max)]
        walks.clear()
        with pytest.raises(TooLarge):
            growth_table(q, p_max + 1)
        assert walks == []

    def test_table_past_newtons_limit_is_refused_before_any_row(self, monkeypatch):
        # the DP window of every row is 3 bits here, so the budget admits it
        q, p_max = NEWTON_LIMIT, NEWTON_LIMIT + 1
        assert cover_count_rows(q, q + 1, p_max) == {}

        def no_row(p, q, signed, unsigned):
            pytest.fail(f"row p={p} computed before the refusal")

        monkeypatch.setattr(permmod, "_counts", no_row)
        with pytest.raises(TooLarge, match=f"limited to p <= {NEWTON_LIMIT}"):
            growth_table(q, p_max)

    def test_table_up_to_newtons_limit_is_admitted(self, monkeypatch):
        seen = []

        def stub(p, q, signed, unsigned):
            seen.append(p)
            return 1, 1, 1, True

        monkeypatch.setattr(permmod, "_counts", stub)
        growth_table(NEWTON_LIMIT - 2, NEWTON_LIMIT)
        assert seen == [NEWTON_LIMIT - 1, NEWTON_LIMIT]

    def test_rows_build_no_bound(self, monkeypatch):
        # a row prints neither bound, so it computes neither
        def no_bound(*args):
            pytest.fail("a growth row built a bound")

        monkeypatch.setattr(permmod, "_lowest_terms", no_bound)
        monkeypatch.setattr(permmod, "_ceil_cube_root", no_bound)
        assert growth_table(3, 8) == dp_growth_rows(3, 8)

    def test_pmax_validation(self):
        with pytest.raises(ValueError):
            growth_table(5, 4)
