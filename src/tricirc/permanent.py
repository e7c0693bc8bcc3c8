"""The permanent side: unsigned counts, Ryser's formula and growth bounds.

Replacing the determinant's -x and -y bands by +x and +y and dropping
signs turns the circulant determinant into a permanent whose generating
polynomial has the coefficients |a(r, s)|.  Since all permutations
behind one monomial share a sign there is no cancellation, so the
permanent of the 0-1 band matrix (value at x = y = 1) equals the sum of
the absolute coefficient values.  This module computes that permanent
and checks it against classical two-sided bounds:

* the unsigned cycle-cover DP shared with the determinant backends, the
  route :func:`bounds_report` and :func:`growth_table` take;
* Ryser inclusion-exclusion with Gray-code updates (exact, p <= 24), an
  independent route for the ``permanent`` verify suite and for
  :func:`bounds_report` when its signed polynomial is the DP's own;
* lower bound 3^p p!/p^p (doubly stochastic scaling), upper bound
  6^(p/3) (row-sum bound), both compared in exact integer arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import exp, factorial, log

from .bipoly import BiPoly
from .circulant import check_dp_budget, cycle_cover_counts
from .errors import InternalInconsistency, TooLarge
from .phi import PermClassKey, Record, phi_polynomial

#: largest p accepted by the Ryser expansion (cost O(2^p * p))
RYSER_LIMIT = 24


def permanent_generating(p: int, q: int) -> BiPoly:
    """sum N(r, s) x^r y^s, the cycle-cover counts without signs."""
    return BiPoly({(r, s): n for r, s, n in cycle_cover_counts(p, q)})


def permanent_ryser(p: int, q: int) -> int:
    """Permanent of the 0-1 circulant with 1s in columns 1, 2, q+1.

    Inclusion-exclusion over column subsets in Gray-code order.  The
    matrix is never materialized: toggling column j changes the sums of
    exactly the three rows j, j-1 and j-q (mod p), and the running
    product of nonzero row sums is patched by one exact division and
    one multiplication.
    """
    PermClassKey.check_pair(p, q)
    if p > RYSER_LIMIT:
        raise TooLarge(f"Ryser expansion is limited to p <= {RYSER_LIMIT}")
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


def _ceil_cube_root(n: int) -> int:
    """Smallest integer c with c**3 >= n (n >= 0), in integers only.

    Newton's iteration from 2^ceil(bits/3) >= n^(1/3) falls
    monotonically to the floor of the cube root.
    """
    if n <= 0:
        return 0
    c = 1 << -(-n.bit_length() // 3)
    while True:
        nxt = (2 * c + n // (c * c)) // 3
        if nxt >= c:
            break
        c = nxt
    return c if c**3 == n else c + 1


class PermanentReport(Record):
    """Permanent value, coefficient statistics and exact bound checks.

    ``d11`` is the permanent of the 0-1 band circulant and ``abs_sum``
    the sum of |a(r, s)| over the signed polynomial; ``max_coeff`` is
    M(p, q) and ``n_monomials`` N(p, q).  ``lower_bound`` is the
    Fraction 3^p p! / p^p and ``upper_bound`` the integer ceil(6^(p/3)).
    ``lower_ok`` holds 3^p p! <= d11 p^p, ``upper_ok`` d11^3 <= 6^p and
    ``sandwich_ok`` d11/N <= M <= d11.
    """

    __slots__ = (
        "p", "q", "d11", "abs_sum", "max_coeff", "n_monomials", "lower_bound",
        "upper_bound", "lower_ok", "upper_ok", "sandwich_ok",
    )

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "d11": str(self.d11),
            "abs_sum": str(self.abs_sum),
            "max_coeff": str(self.max_coeff),
            "n_monomials": self.n_monomials,
            "lower_bound": {
                "numerator": str(self.lower_bound.numerator),
                "denominator": str(self.lower_bound.denominator),
            },
            "upper_bound": str(self.upper_bound),
            "lower_ok": self.lower_ok,
            "upper_ok": self.upper_ok,
            "sandwich_ok": self.sandwich_ok,
        }


def bounds_report(p: int, q: int, backend: str | None = None) -> PermanentReport:
    """Fill every report field with exact arithmetic.

    d11 comes from the unsigned DP and abs_sum from the signed
    determinant polynomial of the selected backend (Newton's identities
    by default).  Since no monomial mixes signs, the DP must equal that
    polynomial with every coefficient made absolute, term by term.
    With the ``cycle_cover`` backend the signed polynomial is the DP's
    own, so d11 comes from Ryser instead and only the sums can be
    compared; past RYSER_LIMIT the report is refused
    (:class:`TooLarge`) rather than compare the DP with itself.  On
    every other backend the DP's budget is checked before the signed
    polynomial is computed, so an over-budget DP is refused before a
    slow route runs (Bareiss takes about 30 s at p = 96).  Any
    disagreement raises :class:`InternalInconsistency`, as does a printed
    ``upper_bound`` c without (c-1)^3 < 6^p <= c^3.  No bound check uses
    a float: the lower one cross-multiplies, the upper ones cube.
    """
    PermClassKey.check_pair(p, q)
    if backend != "cycle_cover":
        check_dp_budget(p, q)
    elif p > RYSER_LIMIT:
        raise TooLarge(
            f"with the cycle_cover backend d11 must come from Ryser's "
            f"expansion, which is limited to p <= {RYSER_LIMIT}"
        )
    signed = phi_polynomial(p, q, backend)
    abs_sum = signed.abs_coefficient_sum()
    if backend == "cycle_cover":
        d11 = permanent_ryser(p, q)
    else:
        unsigned = permanent_generating(p, q)
        if unsigned != signed.termwise_abs():
            raise InternalInconsistency(
                f"the unsigned DP differs from the absolute determinant "
                f"term by term for (p={p}, q={q})"
            )
        d11 = unsigned.evaluate(1, 1)
    if d11 != abs_sum:
        raise InternalInconsistency(
            f"permanent {d11} differs from the absolute coefficient sum "
            f"{abs_sum} for (p={p}, q={q})"
        )
    max_coeff = signed.max_abs_coefficient()
    n_monomials = len(signed)
    lower = Fraction(3**p * factorial(p), p**p)
    upper = _ceil_cube_root(6**p)
    if not (upper - 1) ** 3 < 6**p <= upper**3:
        raise InternalInconsistency(f"upper bound {upper} is not ceil(6^({p}/3))")
    return PermanentReport(
        p=p,
        q=q,
        d11=d11,
        abs_sum=abs_sum,
        max_coeff=max_coeff,
        n_monomials=n_monomials,
        lower_bound=lower,
        upper_bound=upper,
        lower_ok=3**p * factorial(p) <= d11 * p**p,
        upper_ok=d11**3 <= 6**p,
        sandwich_ok=d11 <= max_coeff * n_monomials and max_coeff <= d11,
    )


class GrowthRow(Record):
    """One line of the max-coefficient growth table.

    ``root`` is the float max_coeff ** (1/p), for display only.
    """

    __slots__ = ("p", "q", "max_coeff", "d11", "n_monomials", "root", "sandwich_ok")

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "M": str(self.max_coeff),
            "d11": str(self.d11),
            "n_monomials": self.n_monomials,
            "root": f"{self.root:.4f}",
            "sandwich_ok": self.sandwich_ok,
        }


def growth_table(q: int, p_max: int) -> list[GrowthRow]:
    """Max-coefficient growth for fixed q, p from q+1 (at least 3) up.

    Values come from the unsigned DP; the p-th root column is float and
    purely presentational, taken through the logarithm so that no M is
    too large for it.  sandwich_ok records whether d11/N <= M <= d11
    held (checked exactly).  A table whose DPs together are over budget
    is refused up front.
    """
    if q < 2:
        raise ValueError(f"q must be at least 2, got q={q}")
    p_min = max(3, q + 1)
    if p_max < p_min:
        raise ValueError(f"p_max must be at least {p_min} for q={q}")
    check_dp_budget(p_max, q, p_min)
    rows = []
    for p in range(p_min, p_max + 1):
        gen = permanent_generating(p, q)
        d11 = gen.evaluate(1, 1)
        m = gen.max_abs_coefficient()
        n = len(gen)
        rows.append(
            GrowthRow(
                p=p,
                q=q,
                max_coeff=m,
                d11=d11,
                n_monomials=n,
                root=exp(log(m) / p),
                sandwich_ok=d11 <= m * n and m <= d11,
            )
        )
    return rows


def growth_table_csv(rows: list[GrowthRow]) -> str:
    """CSV with header p,q,M,d11,n_monomials,root (root to 4 decimals)."""
    lines = ["p,q,M,d11,n_monomials,root"]
    for r in rows:
        lines.append(
            f"{r.p},{r.q},{r.max_coeff},{r.d11},{r.n_monomials},{r.root:.4f}"
        )
    return "\n".join(lines) + "\n"
