"""Determinant backends against each other, hand values and float checks."""

import copy
import itertools
import math
import pickle
import random

import time

import pytest

from polytext import parse
from tricirc import circulant, phi
from tricirc.bipoly import ZERO, BiPoly
from tricirc.circulant import (
    BAREISS_LIMIT,
    BRUTEFORCE_LIMIT,
    DP_BUDGET,
    cycle_cover_counts,
    det_bareiss,
    det_bruteforce,
    det_cycle_cover,
    det_float_check,
    dp_cost,
    window_width,
)
from tricirc.phi import (
    NEWTON_LIMIT,
    CirculantSpec,
    canonical_images,
    det_newton,
    from_image,
    phi_polynomial,
    power_sums,
    reduce_theta,
)
from tricirc.errors import (
    InternalInconsistency,
    IrreducibleSpec,
    NonExactDivision,
    TooLarge,
)


def integer_det(matrix: list[list[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination.

    Row pivoting with sign tracking; spot-checks the symbolic backends
    at random integer points.
    """
    m = [list(row) for row in matrix]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def leibniz_reference(spec: CirculantSpec) -> BiPoly:
    """The determinant as the literal sum over all p! permutations.

    Keeps only permutations whose displacements (sigma(j)-j) mod p lie
    in {0, 1, q}; each contributes sgn(sigma) * (-x)^r * (-y)^s.  The
    definition that ``det_bruteforce`` must reproduce.
    """
    p, q = spec.p, spec.q
    acc: dict[tuple[int, int], int] = {}
    for images in itertools.permutations(range(p)):
        r = s = 0
        for j in range(p):
            d = (images[j] - j) % p
            if d == 0:
                continue
            if d == 1:
                r += 1
            elif d == q:
                s += 1
            else:
                break
        else:
            cycles = 0
            seen = [False] * p
            for start in range(p):
                if not seen[start]:
                    cycles += 1
                    j = start
                    while not seen[j]:
                        seen[j] = True
                        j = images[j]
            sgn = -1 if (p - cycles + r + s) % 2 else 1
            acc[(r, s)] = acc.get((r, s), 0) + sgn
    return BiPoly(acc)


def band_walk(p: int, q: int, t: int) -> BiPoly:
    """The determinant of the (p, q, t) band matrix, by the Leibniz expansion.

    Row i holds 1, -x and -y in columns i, i+t and i+q (mod p); a
    depth-first walk picks one of them per row, skipping used columns,
    and each complete pick adds sgn(sigma) * (-x)^r * (-y)^s.  Any t,
    refused specs included, so it judges every route of the re-indexing
    table without going through it.
    """
    rows = [((i, 0, 0), ((i + t) % p, 1, 0), ((i + q) % p, 0, 1)) for i in range(p)]
    images = [0] * p
    acc: dict[tuple[int, int], int] = {}

    def walk(i, used, r, s):
        if i == p:
            seen, cycles = 0, 0
            for start in range(p):
                if not seen >> start & 1:
                    cycles += 1
                    j = start
                    while not seen >> j & 1:
                        seen |= 1 << j
                        j = images[j]
            sgn = -1 if (p - cycles + r + s) % 2 else 1
            acc[r, s] = acc.get((r, s), 0) + sgn
            return
        for col, dr, ds in rows[i]:
            if not used >> col & 1:
                images[i] = col
                walk(i + 1, used | 1 << col, r + dr, s + ds)

    walk(0, 0, 0, 0)
    return BiPoly(acc)


def substituted_matrix(spec: CirculantSpec, x0: int, y0: int) -> list[list[int]]:
    """The band matrix with integers substituted for x and y."""
    p = spec.p
    rows = []
    for i in range(p):
        row = [0] * p
        row[i] = 1
        row[(i + spec.t) % p] = -x0
        row[(i + spec.q) % p] = -y0
        rows.append(row)
    return rows


# expanded by hand via cofactors along the first row
DET_3_2 = parse("1 - x^3 - 3*x*y - y^3")

# derived by pairing conjugate roots of unity: the 4x4 case factors as
# ((1-y)^2 - x^2) * ((1+y)^2 + x^2)
DET_4_2 = parse("1 - 4*x^2*y - 2*y^2 - x^4 + y^4")

PHI_8_3 = parse("1 - x^8 - 8*x^5*y - 12*x^2*y^2 + 2*x^4*y^4 - 8*x*y^5 - y^8")
PHI_5_3 = parse("1 - x^5 - 5*x^2*y - 5*x*y^3 - y^5")


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            CirculantSpec(2, 1)
        with pytest.raises(ValueError):
            CirculantSpec(5, 0)
        with pytest.raises(ValueError):
            CirculantSpec(5, 5)
        with pytest.raises(ValueError):
            CirculantSpec(5, 3, 3)  # t == q

    def test_validation_order(self):
        # p, then q, then t, then irreducibility, then distinct offsets
        for args, exc, text in (
            ((2, 0, 0), ValueError, "p must be at least 3, got 2"),
            ((5, 0, 0), ValueError, "q must lie in [1, p-1], got q=0"),
            ((5, 1, 0), ValueError, "t must lie in [1, p-1], got t=0"),
            ((6, 3, 3), IrreducibleSpec,
             "gcd(t=3, p=6) > 1 and gcd(q=3, p=6) > 1: no canonical form is known"),
            ((5, 3, 3), ValueError, "band offsets t and q must be distinct"),
        ):
            with pytest.raises(exc) as info:
                CirculantSpec(*args)
            assert type(info.value) is exc and str(info.value) == text

    def test_value_semantics(self):
        spec = CirculantSpec(30, 7)
        assert repr(spec) == "CirculantSpec(p=30, q=7, t=1)"
        assert spec == CirculantSpec(p=30, q=7, t=1) == CirculantSpec(30, q=7)
        assert hash(spec) == hash((30, 7, 1))
        assert spec != (30, 7, 1) and spec != CirculantSpec(30, 7, 2)
        assert copy.copy(spec) == spec == pickle.loads(pickle.dumps(spec))
        with pytest.raises(AttributeError):
            spec.p = 31
        with pytest.raises(AttributeError):
            del spec.q
        assert spec == CirculantSpec(30, 7)

    def test_canonical_flag(self):
        assert CirculantSpec(8, 3).is_canonical
        assert not CirculantSpec(8, 3, 2).is_canonical
        assert not CirculantSpec(8, 1, 2).is_canonical  # q=1 needs reduction


class TestReduceTheta:
    def test_already_canonical(self):
        spec = CirculantSpec(8, 3)
        assert reduce_theta(spec) == (spec, False)

    def test_invertible_t(self):
        # 2^-1 = 3 (mod 5) and 3*3 = 9 = 4 (mod 5)
        red = reduce_theta(CirculantSpec(5, 3, 2))
        assert red.spec == CirculantSpec(5, 4, 1)
        assert not red.swapped

    def test_swap_branch(self):
        # gcd(t=2, 6) > 1 but gcd(q=5, 6) = 1: exchange the variable roles
        red = reduce_theta(CirculantSpec(6, 5, 2))
        assert red.swapped
        assert red.spec == CirculantSpec(6, 4, 1)  # t * q^-1 = 2*5 = 4 (mod 6)
        assert canonical_images(6, 5, 2)[4] == ("zyx", 0)

    def test_every_reduction_maps_back_to_the_band_walk(self):
        # every admitted non-canonical spec up to the brute-force size
        checked = 0
        for p in range(3, BRUTEFORCE_LIMIT + 1):
            for q, t in itertools.permutations(range(1, p), 2):
                try:
                    spec = CirculantSpec(p, q, t)
                except IrreducibleSpec:
                    continue
                if spec.is_canonical:
                    continue
                canon = reduce_theta(spec).spec
                way = canonical_images(p, q, t)[canon.q]
                got = from_image(phi_polynomial(p, canon.q).terms, p, way)
                assert got == band_walk(p, q, t), (p, q, t)
                checked += 1
        assert checked == 170

    def test_reduction_is_the_first_entry_of_the_table(self):
        # q/t when t is a unit, else t/q with x and y exchanged
        for p in range(3, 41):
            for q, t in itertools.permutations(range(1, p), 2):
                try:
                    spec = CirculantSpec(p, q, t)
                except IrreducibleSpec:
                    continue
                red = reduce_theta(spec)
                if math.gcd(t, p) == 1:
                    want = (q * pow(t, -1, p) % p, False)
                else:
                    want = (t * pow(q, -1, p) % p, True)
                assert (red.spec.q, red.swapped) == want, (p, q, t)
                assert red.spec.t == 1
                first = next(iter(canonical_images(p, q, t).items()))
                assert first == (red.spec.q, ("zyx" if red.swapped else "zxy", 0))

    def test_irreducible(self):
        with pytest.raises(IrreducibleSpec):
            reduce_theta(CirculantSpec(6, 3, 2))


class TestBareiss:
    def test_published_8_3(self):
        assert det_bareiss(CirculantSpec(8, 3)) == PHI_8_3

    def test_published_5_3(self):
        assert det_bareiss(CirculantSpec(5, 3)) == PHI_5_3

    def test_hand_expanded_3_2(self):
        assert det_bareiss(CirculantSpec(3, 2)) == DET_3_2

    def test_hand_expanded_4_2(self):
        assert det_bareiss(CirculantSpec(4, 2)) == DET_4_2

    def test_rejects_noncanonical(self):
        with pytest.raises(ValueError):
            det_bareiss(CirculantSpec(5, 3, 2))

    def test_unrouted_elimination_equals_newton(self):
        # at q itself past about p/2 the pivot changes while some rows have
        # no entry in its column, a step that no routed pair takes
        for p, q in canonical_pairs(16):
            assert circulant._bareiss(p, q) == det_newton(CirculantSpec(p, q)), (p, q)


def newton_by_gathering(p, q):
    """The determinant by Newton's identities, every slice gathered in turn.

    The reference for ``det_newton``: slice t sums c_(t-i) tr(A^i) over
    every power sum i <= t, empty slices included.
    """
    sums = [(i, list(ps.items())) for i, ps in power_sums(p, q).items()]
    slices = [{0: 1}]
    for t in range(1, p + 1):
        acc = {}
        for i, ps in sums:
            if i > t:
                break
            for s1, c1 in slices[t - i].items():
                for s2, c2 in ps:
                    acc[s1 + s2] = acc.get(s1 + s2, 0) + c1 * c2
        ct = {}
        for s, v in acc.items():
            c, rem = divmod(-v, t)
            assert rem == 0, (p, q, t, s)
            if c:
                ct[s] = c
        slices.append(ct)
    return BiPoly({(t - s, s): c for t, ct in enumerate(slices) for s, c in ct.items()})


class TestNewton:
    def test_equals_the_gathering_loop(self):
        for p, q in canonical_pairs(60):
            assert det_newton(CirculantSpec(p, q)) == newton_by_gathering(p, q), (p, q)

    def test_published_polynomials(self):
        assert det_newton(CirculantSpec(5, 3)) == PHI_5_3
        assert det_newton(CirculantSpec(8, 3)) == PHI_8_3
        assert det_newton(CirculantSpec(3, 2)) == DET_3_2
        assert det_newton(CirculantSpec(4, 2)) == DET_4_2

    def test_closed_form_at_q2(self):
        # 1 - P_p + (-y)^p, where P_p = sum over r + 2s = p of
        # p/(r+s) C(r+s, s) x^r y^s (Waring's formula)
        for p in [*range(3, 61), 97, 400, NEWTON_LIMIT]:
            terms = {(0, 0): 1, (0, p): (-1) ** p}
            for s in range(p // 2 + 1):
                r = p - 2 * s
                c, rem = divmod(p * math.comb(r + s, s), r + s)
                assert rem == 0, (p, r, s)
                terms[r, s] = -c
            assert det_newton(CirculantSpec(p, 2)) == BiPoly(terms), p

    def test_power_sums_3_2(self):
        # tr(A) = 0, tr(A^2) = 6xy, tr(A^3) = 3x^3 + 3y^3
        assert power_sums(3, 2) == {2: {1: 6}, 3: {0: 3, 3: 3}}

    @pytest.mark.parametrize("p", (12, 17, 24, 31))
    def test_matches_bareiss_every_q(self, p):
        for q in range(2, p):
            spec = CirculantSpec(p, q)
            assert det_newton(spec) == det_bareiss(spec), (p, q)

    @pytest.mark.parametrize("q", (2, 3, 13, 20, 21, 39))
    def test_matches_bareiss_at_40(self, q):
        spec = CirculantSpec(40, q)
        assert det_newton(spec) == det_bareiss(spec)

    @pytest.mark.parametrize("p", range(65, 71))
    def test_matches_cycle_cover_past_64(self, p):
        for q in (2, 3, 4):
            spec = CirculantSpec(p, q)
            assert det_newton(spec) == det_cycle_cover(spec), (p, q)

    def test_inexact_power_sum_raises(self, monkeypatch):
        # tr(A) = x makes c_2 = x^2/2, which is not an integer polynomial
        monkeypatch.setattr(phi, "power_sums", lambda p, q: {1: {0: 1}})
        with pytest.raises(NonExactDivision) as info:
            det_newton(CirculantSpec(5, 3))
        assert str(info.value) == (
            "2 does not divide the coefficient 1 of x^2*y^0 in t*c_t "
            "for CirculantSpec(p=5, q=3, t=1)"
        )

    def test_rejects_noncanonical(self):
        for route in (det_newton, det_bareiss):
            with pytest.raises(ValueError) as info:
                route(CirculantSpec(5, 3, 2))
            assert str(info.value) == (
                "CirculantSpec(p=5, q=3, t=2) is not canonical; apply reduce_theta first"
            )


class TestSizeLimits:
    def test_newton_limit(self):
        det_newton(CirculantSpec(NEWTON_LIMIT, 3))
        t0 = time.perf_counter()
        with pytest.raises(TooLarge):
            det_newton(CirculantSpec(NEWTON_LIMIT + 1, 3))
        assert time.perf_counter() - t0 < 0.1

    def test_bareiss_limit_keeps_p_96(self):
        assert BAREISS_LIMIT >= 96
        with pytest.raises(TooLarge):
            det_bareiss(CirculantSpec(BAREISS_LIMIT + 1, 3))

    def test_dp_budget(self):
        # admitted: the windows the benchmark and the suites use, and
        # (22, 11) 1.0 s, (24, 12) 1.5-3.3 s, (30, 10) 0.7 s, (96, 6) 0.07 s
        for p, q in ((64, 7), (96, 5), (20, 10), (48, 2),
                     (22, 11), (24, 12), (30, 10), (96, 6)):
            assert dp_cost(p, q) <= DP_BUDGET, (p, q)
        # refused: each of these ran 9 s or more; (30, 15) was not run,
        # its window is one bit wider than that of (28, 14) at 16 s
        for p, q in ((30, 15), (32, 13), (28, 14), (3000, 3), (4000, 2)):
            assert dp_cost(p, q) > DP_BUDGET, (p, q)
            with pytest.raises(TooLarge):
                cycle_cover_counts(p, q)

    def test_refusal_tells_estimate_and_budget_apart(self):
        # (284, 8) is just over the budget: both read 1.5e+09 at 2 digits
        with pytest.raises(TooLarge) as exc:
            cycle_cover_counts(284, 8)
        words = str(exc.value).split()
        estimate = words[words.index("at") + 1]
        budget = words[words.index("of") + 1]
        assert estimate != budget
        assert float(estimate) > float(budget) == DP_BUDGET


class TestBruteforce:
    def test_published_5_3(self):
        assert det_bruteforce(CirculantSpec(5, 3)) == PHI_5_3

    def test_oracle_equivalence_4_2(self):
        assert det_bruteforce(CirculantSpec(4, 2)) == det_bareiss(CirculantSpec(4, 2))

    def test_hand_expanded_3_2(self):
        assert det_bruteforce(CirculantSpec(3, 2)) == DET_3_2

    def test_size_guard(self):
        with pytest.raises(TooLarge):
            det_bruteforce(CirculantSpec(11, 3))

    @pytest.mark.parametrize("p", range(3, 9))
    def test_matches_literal_definition(self, p):
        for q in range(2, p):
            spec = CirculantSpec(p, q)
            assert det_bruteforce(spec) == leibniz_reference(spec), (p, q)

    def test_matches_newton_at_limit(self):
        p = BRUTEFORCE_LIMIT
        for q in range(2, p):
            spec = CirculantSpec(p, q)
            assert det_bruteforce(spec) == det_newton(spec), (p, q)


class TestCycleCover:
    def test_published_polynomials(self):
        assert det_cycle_cover(CirculantSpec(5, 3)) == PHI_5_3
        assert det_cycle_cover(CirculantSpec(8, 3)) == PHI_8_3

    def test_matches_bruteforce_7_2(self):
        assert det_cycle_cover(CirculantSpec(7, 2)) == det_bruteforce(
            CirculantSpec(7, 2)
        )

    def test_large_q_uses_narrow_window(self):
        # q = p-1 runs at its image 1 - q = 2; must stay cheap and correct
        assert canonical_images(9, 8)[2] == ("xzy", 1)
        assert window_width(9, 8) == window_width(9, 2) == 3
        assert det_cycle_cover(CirculantSpec(9, 8)) == det_bruteforce(
            CirculantSpec(9, 8)
        )

    def test_window_guard(self):
        assert window_width(40, 20) == 21
        with pytest.raises(TooLarge):
            cycle_cover_counts(40, 20)

    def test_counts_are_cached_and_immutable(self):
        a = cycle_cover_counts(5, 3)
        assert a == BiPoly({(0, 0): 1, (0, 5): 1, (1, 3): 5, (2, 1): 5, (5, 0): 1})
        with pytest.raises(TypeError):
            a.terms[2, 1] = 6
        with pytest.raises(TypeError):
            del a.terms[0, 0]
        assert a is cycle_cover_counts(5, 3)
        assert dict(a.terms) == {(0, 0): 1, (0, 5): 1, (1, 3): 5, (2, 1): 5, (5, 0): 1}

    @pytest.mark.parametrize("p", range(3, 10))
    def test_counts_match_bruteforce(self, p):
        for q in range(2, p):
            brute = det_bruteforce(CirculantSpec(p, q)).termwise_abs()
            assert cycle_cover_counts(p, q) == brute, (p, q)

    def test_counts_match_newton_up_to_8_bit_windows(self):
        for p in range(3, 49):
            for q in range(2, p):
                if window_width(p, q) > 8:
                    continue
                want = det_newton(CirculantSpec(p, q)).termwise_abs()
                assert cycle_cover_counts(p, q) == want, (p, q)

    def test_unpacking_checks_both_cover_facts(self):
        # slot s of the packed total sits at bit 64*s for p <= 32
        assert circulant._unpack_counts(2 + (5 << 64), 5, 3, 64) == {
            (0, 0): 1, (2, 1): 5, (5, 0): 1
        }
        with pytest.raises(InternalInconsistency, match="s = 0 holds 1"):
            circulant._unpack_counts(1 + (5 << 64), 5, 3, 64)
        # s = 4 needs r = -12 mod 5 = 3, and 3 + 4 > 5
        with pytest.raises(InternalInconsistency, match="r\\+s > p"):
            circulant._unpack_counts(2 + (1 << 256), 5, 3, 64)


class TestWalk:
    @pytest.mark.parametrize("q", range(2, 11))
    def test_each_row_of_the_walk_is_the_one_row_kernel(self, q):
        # rows below 2q - 1 too, and slots as wide as the last row's
        p_hi = 2 * q + 1
        rows = circulant._cover_count_rows(q, q + 1, p_hi)
        assert len(rows) == p_hi - q
        for p, row in zip(range(q + 1, p_hi + 1), rows):
            assert row == circulant._cover_count_rows(q, p, p)[0], (p, q)


def canonical_pairs(p_max, p_min=3):
    return [(p, q) for p in range(p_min, p_max + 1) for q in range(2, p)]


class TestSymmetricImages:
    ORDERS = ("zxy", "zyx", "xzy", "xyz", "yzx", "yxz")

    def test_images_are_the_anharmonic_orbit(self):
        # q and 1/q keep the band of 1 at offset 0; 1-q, 1/(1-q), (q-1)/q
        # and q/(q-1) move x (offset 1) or y (offset q) there
        assert canonical_images(11, 3) == {
            3: ("zxy", 0), 4: ("zyx", 0), 9: ("xzy", 1),
            5: ("xyz", 1), 8: ("yzx", 3), 7: ("yxz", 3),
        }
        # z and y differ by q, a non-unit here, and 1 - p/2 = p/2 + 1
        assert canonical_images(10, 4) == {
            4: ("zxy", 0), 7: ("xzy", 1), 3: ("xyz", 1), 8: ("yxz", 4),
        }
        assert canonical_images(40, 20) == {20: ("zxy", 0), 21: ("xzy", 1)}
        assert canonical_images(96, 48) == {48: ("zxy", 0), 49: ("xzy", 1)}

    def test_every_image_of_every_spec_maps_back_to_the_band_walk(self):
        # refused specs too: t and q both non-units reach canonical q' only
        # through an order that moves z off offset 0
        orders = set()
        for p in range(3, BRUTEFORCE_LIMIT + 1):
            for q, t in itertools.permutations(range(1, p), 2):
                want = band_walk(p, q, t)
                for image, way in canonical_images(p, q, t).items():
                    poly = det_newton(CirculantSpec(p, image))
                    got = from_image(poly.terms, p, way)
                    assert got == want, (p, q, t, image, way)
                    orders.add(way[0])
        assert orders == set(self.ORDERS)

    def test_every_image_maps_newton_back_exactly(self):
        orders = set()
        for p, q in canonical_pairs(30):
            want = det_newton(CirculantSpec(p, q))
            for image, way in canonical_images(p, q).items():
                poly = det_newton(CirculantSpec(p, image))
                got = from_image(poly.terms, p, way)
                assert got == want, (p, q, image)
                orders.add(way[0])
        assert orders == set(self.ORDERS)

    def test_unsigned_counts_map_back_from_every_image(self):
        # the kernel runs once per pair, though each is an image of its orbit
        kernel = {
            (p, q): circulant._cover_count_rows(q, p, p)[0]
            for p, q in canonical_pairs(12)
        }
        for p, q in canonical_pairs(12):
            for image, way in canonical_images(p, q).items():
                got = from_image(kernel[p, image], p, way).termwise_abs()
                assert got == BiPoly(kernel[p, q]), (p, q, image)

    def test_routed_dp_equals_the_unrouted_kernel(self):
        # the kernel at q itself only where its (q + 1)-bit window is cheap
        for p, q in canonical_pairs(16):
            got = cycle_cover_counts(p, q)
            want = det_newton(CirculantSpec(p, q)).termwise_abs()
            assert got == want, (p, q)
            if q + 1 <= 10:
                assert got == BiPoly(circulant._cover_count_rows(q, p, p)[0]), (p, q)

    def test_routed_bareiss_equals_newton(self):
        for p, q in canonical_pairs(24) + [(40, 20), (48, 24)]:
            spec = CirculantSpec(p, q)
            assert det_bareiss(spec) == det_newton(spec), (p, q)

    def test_dp_runs_at_the_smallest_image(self, monkeypatch):
        ran = []
        real = circulant._cover_count_rows

        def record(q, p_lo, p_hi):
            ran.append(q)
            return real(q, p_lo, p_hi)

        monkeypatch.setattr(circulant, "_cover_count_rows", record)
        moved = 0
        for p, q in canonical_pairs(20):
            cycle_cover_counts.cache_clear()
            ran.clear()
            cycle_cover_counts(p, q)
            assert ran == [min(canonical_images(p, q))], (p, q)
            moved += ran != [q]
        cycle_cover_counts.cache_clear()
        assert moved > 0

    def test_routed_window_is_never_wider_than_window_width(self):
        # arithmetic only: T(q) = 1 - q is always an image, so the routed
        # window min(images) + 1 fits inside window_width, which dp_cost reads
        for p, q in canonical_pairs(300):
            routed = min(canonical_images(p, q)) + 1
            assert routed <= window_width(p, q) == min(q, (1 - q) % p) + 1, (p, q)

    def test_bareiss_never_runs_at_half_p(self, monkeypatch):
        # the elimination is stubbed: only the choice of image runs
        ran = []

        def record(p, q):
            ran.append(q)
            return BiPoly({(0, 0): 1})

        monkeypatch.setattr(circulant, "_bareiss", record)
        for p, q in canonical_pairs(BAREISS_LIMIT):
            ran.clear()
            det_bareiss(CirculantSpec(p, q))
            [image] = ran
            assert 2 * image != p, (p, q)
            assert image == min(g for g in canonical_images(p, q) if 2 * g != p)
        ran.clear()
        det_bareiss(CirculantSpec(96, 48))
        assert ran == [49]

    def test_one_cache_entry_per_requested_pair(self):
        # (11, 5) runs at its image (5 - 1)/5 = 3 (a 4-bit window, not 6)
        assert canonical_images(11, 5)[3] == ("yzx", 5)
        assert (window_width(11, 5), window_width(11, 3)) == (6, 4)
        cycle_cover_counts.cache_clear()
        cycle_cover_counts(11, 5)
        cycle_cover_counts(11, 5)
        info = cycle_cover_counts.cache_info()
        assert (info.currsize, info.hits, info.misses) == (1, 1, 1)

    def test_budget_judges_the_requested_pair(self):
        # (32, 13) has a 14-bit window; its image 1/13 = 5 has a 6-bit one
        assert 5 in canonical_images(32, 13) and window_width(32, 5) == 6
        with pytest.raises(TooLarge, match="p=32, q=13 \\(14-bit window\\)"):
            cycle_cover_counts(32, 13)


class TestStructuralInvariants:
    @pytest.mark.parametrize("p", range(3, 10))
    def test_sweep_properties(self, p):
        for q in range(2, p):
            det = det_bareiss(CirculantSpec(p, q))
            assert det.constant_term() == 1
            assert det.coefficient(p, 0) == -1
            assert max(r + s for r, s in det.terms) <= p

    def test_random_point_agreement(self):
        rng = random.Random(1812)
        for _ in range(25):
            p = rng.randint(3, 8)
            q = rng.randint(2, p - 1)
            spec = CirculantSpec(p, q)
            det = det_bareiss(spec)
            x0, y0 = rng.randint(-3, 3), rng.randint(-3, 3)
            assert det.evaluate(x0, y0) == integer_det(
                substituted_matrix(spec, x0, y0)
            )


class TestFloatCheck:
    def test_published_8_3_passes(self):
        rep = det_float_check(CirculantSpec(8, 3), PHI_8_3)
        assert rep.passed
        assert rep.points == 16

    def test_zero_candidate_fails_by_value_at_ones(self):
        rep = det_float_check(CirculantSpec(5, 3), ZERO)
        assert not rep.passed
        # the worst grid point sees |det(1,1)| = 11
        assert rep.max_abs_deviation == pytest.approx(11.0, abs=1e-6)

    def test_self_consistency_3_2(self):
        rep = det_float_check(CirculantSpec(3, 2), det_bareiss(CirculantSpec(3, 2)))
        assert rep.passed


class TestIntegerDet:
    def test_known_values(self):
        assert integer_det([[1, 2], [3, 4]]) == -2
        assert integer_det([[0, 1], [1, 0]]) == -1  # needs a row swap
        assert integer_det([[2, 0], [0, 0]]) == 0
        assert integer_det([[3]]) == 3
