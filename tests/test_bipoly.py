"""Polynomial arithmetic: worked examples, ring axioms, serialization."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polytext import parse as P
from tricirc import bipoly, circulant
from tricirc.bipoly import ONE, X, Y, ZERO, BiPoly, Monomial, exact_div
from tricirc.errors import NonExactDivision
from tricirc.phi import CirculantSpec


def long_division(a, b):
    """Quotient of a by any nonzero b by monomial-ordered long division.

    Each step divides the remainder's largest term in the canonical
    order by b's; raises NonExactDivision when that fails.
    """
    bm = max(b.terms, key=Monomial.sort_key)
    bc = b.terms[bm]
    rem = dict(a.terms)
    quot = {}
    while rem:
        lm = max(rem, key=Monomial.sort_key)
        lc = rem[lm]
        dr, ds = lm.r - bm.r, lm.s - bm.s
        if dr < 0 or ds < 0 or lc % bc != 0:
            raise NonExactDivision(f"{lc}*x^{lm.r}*y^{lm.s} is not divisible")
        qc = lc // bc
        quot[(dr, ds)] = qc
        for m2, c2 in b.terms.items():
            k = Monomial(m2.r + dr, m2.s + ds)
            v = rem.get(k, 0) - qc * c2
            if v:
                rem[k] = v
            else:
                rem.pop(k, None)
    return BiPoly(quot)


class TestBasics:
    def test_canonical_form_drops_zeros(self):
        assert BiPoly({(1, 0): 0, (0, 0): 3}).terms == {Monomial(0, 0): 3}

    def test_negative_exponents_rejected(self):
        with pytest.raises(ValueError):
            BiPoly({(-1, 0): 2})

    def test_terms_come_from_a_mapping_only(self):
        # a list of (key, value) pairs is not read as terms
        with pytest.raises(TypeError, match=r"mapping \{\(r, s\): c\}, not list"):
            BiPoly([((1, 0), 2)])
        # so is any other non-mapping, falsy ones included: none is zero
        for falsy in ([], (), "", 0):
            with pytest.raises(TypeError, match="mapping"):
                BiPoly(falsy)
        assert BiPoly({(1, 0): 2}).terms == {Monomial(1, 0): 2}
        assert BiPoly() == BiPoly({}) == ZERO

    def test_equality_is_term_equality(self):
        assert BiPoly({(1, 1): 2}) == BiPoly({(1, 1): 2})
        assert BiPoly({(1, 1): 2}) != BiPoly({(1, 1): 3})
        assert ZERO == BiPoly() and ONE == BiPoly.constant(1)
        # equal polynomials hash alike, built by a product or from terms
        assert hash(X * Y + ONE) == hash(BiPoly({(0, 0): 1, (1, 1): 1}))

    def test_only_polynomial_operands(self):
        for op in (lambda: X + 1, lambda: 1 + X, lambda: X - 1, lambda: 2 * X, lambda: X * 2):
            with pytest.raises(TypeError):
                op()
        # == declines a non-polynomial too, so Python compares identities
        assert X != 1 and not X == X.terms

    def test_monomial_ordering_is_degree_then_x(self):
        ms = [Monomial(8, 0), Monomial(0, 0), Monomial(1, 5), Monomial(5, 1),
              Monomial(2, 2), Monomial(0, 8), Monomial(4, 4)]
        assert sorted(ms, key=Monomial.sort_key) == [
            Monomial(0, 0), Monomial(2, 2), Monomial(1, 5), Monomial(5, 1),
            Monomial(0, 8), Monomial(4, 4), Monomial(8, 0),
        ]


class TestAdd:
    def test_cancellation(self):
        assert P("x - y") + P("y") == X

    def test_identity(self):
        p = P("1 - x^5 - 5*x^2*y")
        assert p + ZERO == p

    def test_disjoint_supports(self):
        assert P("1 - x^5") + P("-5*x^2*y") == P("1 - x^5 - 5*x^2*y")


class TestMul:
    def test_difference_of_squares(self):
        assert P("1 - x") * P("1 + x") == P("1 - x^2")

    def test_binomial_square(self):
        assert P("x + y") * P("x + y") == P("x^2 + 2*x*y + y^2")

    def test_identity(self):
        p = P("1 - x - y")
        assert p * ONE == p


class TestExactDiv:
    def test_difference_of_squares(self):
        assert exact_div(P("1 - x^2"), P("1 - x")) == P("1 + x")

    def test_unit_divisor(self):
        p = P("1 - x^8 - 8*x^5*y")
        assert exact_div(p, ONE) == p

    def test_constant_divisor(self):
        with pytest.raises(ValueError, match="constant term 1"):
            exact_div(P("2*x^2 + 2*x*y"), BiPoly.constant(2))

    def test_nonexact_raises(self):
        with pytest.raises(NonExactDivision):
            exact_div(P("x^2 + 1"), P("x + 1"))
        with pytest.raises(ValueError, match="constant term 1"):
            exact_div(P("3*x"), BiPoly.constant(2))

    def test_zero_divisor_raises(self):
        with pytest.raises(ZeroDivisionError):
            exact_div(X, ZERO)

    def test_matches_long_division_on_every_bareiss_step(self, monkeypatch):
        divisions = 0  # by a divisor other than ONE

        def both(a, b):
            nonlocal divisions
            quot = exact_div(a, b)
            assert quot == long_division(a, b), (a, b)
            divisions += b != ONE
            return quot

        monkeypatch.setattr(bipoly, "exact_div", both)
        for p in range(3, 21):
            for q in range(2, p):
                circulant.det_bareiss(CirculantSpec(p, q))
        assert divisions > 0


class TestEval:
    def test_five_term_polynomial_at_ones(self):
        p = P("1 - x^5 - 5*x^2*y - 5*x*y^3 - y^5")
        assert p.evaluate(1, 1) == -11

    def test_constant_term_at_origin(self):
        p = P("7 - 3*x + 2*x*y^4")
        assert p.evaluate(0, 0) == 7 == p.constant_term()

    def test_monomial(self):
        assert P("x^2*y").evaluate(2, 3) == 12


class TestReduceMod:
    def test_five_term_polynomial_mod_5(self):
        p = P("1 - x^5 - 5*x^2*y - 5*x*y^3 - y^5")
        assert p.reduce_mod(5) == P("1 + 4*x^5 + 4*y^5")

    def test_even_coefficients_mod_2(self):
        assert P("2*x + 4*y^3 - 6").reduce_mod(2) == ZERO

    def test_multiple_vanishes(self):
        assert P("3*x").reduce_mod(3) == ZERO

    def test_small_modulus_rejected(self):
        with pytest.raises(ValueError):
            X.reduce_mod(1)


monomials = st.tuples(st.integers(0, 6), st.integers(0, 6))
polys = st.dictionaries(monomials, st.integers(-9, 9), max_size=8).map(BiPoly)
points = st.integers(-5, 5)


class TestRingAxioms:
    @given(polys, polys)
    def test_add_commutes(self, a, b):
        assert a + b == b + a

    @given(polys, polys, polys)
    def test_add_associates(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(polys, polys)
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @given(polys, polys, polys)
    def test_mul_associates(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(polys, polys, polys)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(polys, polys)
    def test_exact_div_inverts_mul(self, a, b):
        b = ONE + BiPoly({m: c for m, c in b.terms.items() if m != (0, 0)})
        assert exact_div(a * b, b) == a

    @given(polys, polys, points, points)
    def test_evaluate_is_a_homomorphism(self, a, b, x0, y0):
        assert (a * b).evaluate(x0, y0) == a.evaluate(x0, y0) * b.evaluate(x0, y0)
        assert (a + b).evaluate(x0, y0) == a.evaluate(x0, y0) + b.evaluate(x0, y0)


class TestSerialization:
    def test_render_display_order(self):
        p = BiPoly({(0, 0): 1, (8, 0): -1, (5, 1): -8, (2, 2): -12,
                    (4, 4): 2, (1, 5): -8, (0, 8): -1})
        assert p.render() == "1 - x^8 - 8*x^5*y - 12*x^2*y^2 + 2*x^4*y^4 - 8*x*y^5 - y^8"

    def test_render_edge_cases(self):
        assert ZERO.render() == "0"
        assert (-X).render() == "-x"
        assert P("-1 + x").render() == "-1 + x"
        assert BiPoly({(1, 1): 1}).render() == "x*y"

    def test_json_canonical_order(self):
        p = BiPoly({(0, 2): 4, (1, 0): -3, (0, 0): 1})
        assert p.to_json_dict() == {
            "terms": [
                {"r": 0, "s": 0, "c": "1"},
                {"r": 1, "s": 0, "c": "-3"},
                {"r": 0, "s": 2, "c": "4"},
            ]
        }

    @given(polys)
    def test_text_round_trip(self, p):
        assert P(p.render()) == p

    @given(polys)
    def test_json_round_trip(self, p):
        # the JSON terms read back into the same polynomial, each term once
        terms = p.to_json_dict()["terms"]
        assert BiPoly({(t["r"], t["s"]): int(t["c"]) for t in terms}) == p
        assert len(terms) == len(p)

    def test_parse_rejects_garbage(self):
        for bad in ("x**2", "2x", "x^-1", "x +", "z"):
            with pytest.raises(ValueError):
                P(bad)


class TestHelpers:
    def test_abs_helpers(self):
        p = P("1 - x^5 - 5*x^2*y - 5*x*y^3 - y^5")
        assert p.termwise_abs() == P("1 + x^5 + 5*x^2*y + 5*x*y^3 + y^5")
        assert p.abs_coefficient_sum() == 13
        assert p.max_abs_coefficient() == 5
        assert len(p) == 5
        assert ZERO.abs_coefficient_sum() == ZERO.max_abs_coefficient() == len(ZERO) == 0
