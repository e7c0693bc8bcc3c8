"""The permanent side: unsigned counts, Ryser's formula and growth bounds.

Replacing the determinant's -x and -y bands by +x and +y and dropping
signs turns the circulant determinant into a permanent whose generating
polynomial has the coefficients |a(r, s)|.  Since all permutations
behind one monomial share a sign there is no cancellation, so the
permanent of the 0-1 band matrix (value at x = y = 1) equals the sum of
the absolute coefficient values.  This module computes that permanent
and checks it against classical two-sided bounds:

* the unsigned cycle-cover DP shared with the determinant backends,
  whose result, :func:`tricirc.circulant.cycle_cover_counts`, is that
  generating polynomial: the route :func:`bounds_report` takes, and
  :func:`growth_table` too, whose rows from 2q - 1 up can share one
  transfer-matrix walk;
* Ryser inclusion-exclusion over necklaces of columns (exact, p <= 24), an
  independent route for the ``permanent`` verify suite and for
  :func:`bounds_report` when its signed polynomial is the DP's own;
* lower bound 3^p p!/p^p (doubly stochastic scaling), upper bound
  6^(p/3) (row-sum bound), both compared in exact integer arithmetic.
  The lower bound is a :class:`Ratio` reduced with :func:`math.gcd`,
  not a Fraction, so no command loads :mod:`fractions` (nor, through
  it, :mod:`decimal` and :mod:`numbers`).
"""

from math import exp, factorial, gcd, log

from .bipoly import BiPoly
from .circulant import cover_count_rows, cycle_cover_counts
from .errors import InternalInconsistency, TooLarge
from .phi import NEWTON_LIMIT, PermClassKey, Record, phi_polynomial

#: largest p accepted by the Ryser expansion (about 2^p / p necklaces;
#: (24, 12) is the README limits table's row)
RYSER_LIMIT = 24


def permanent_ryser(p: int, q: int) -> int:
    """Permanent of the 0-1 circulant with 1s in columns 1, 2, q+1.

    Ryser's inclusion-exclusion over column sets m, as bitmasks: row i
    holds columns i, i+1 and i+q, so with b and c the rotations of m by
    1 and by q its sum counts bit i of m, b and c.  A term is nonzero
    only when ``m | b | c`` is full, and is then +-2^a 3^t with the rows
    summing to 3 in ``m & b & c``; only (a, t, |m| mod 2) is tallied, so
    no big integer is built per column set.  Rotating m permutes the
    rows, so every rotation of m has m's term: the sum runs over binary
    necklaces, each weighted by its period, the number of its distinct
    rotations.  They are the prenecklaces, generated in FKM order
    (Ruskey, Savage and Wang, J. Algorithms 13, 1992), whose period
    divides p; that visits about 2^p / p column sets instead of 2^p.
    """
    PermClassKey.check_pair(p, q)
    if p > RYSER_LIMIT:
        raise TooLarge(f"Ryser expansion is limited to p <= {RYSER_LIMIT}")
    full = (1 << p) - 1
    low = (1 << q) - 1
    # FKM on the word m, first letter in the top bit: the prenecklace after
    # m raises its last 0, the i-th letter, and repeats the first i letters
    # up to length p; repeat[i] times the i-letter prefix, shifted right by
    # cut[i], is that repetition
    repeat, cut = [0], [0]
    for i in range(1, p + 1):
        copies = -(-p // i)
        repeat.append(((1 << i * copies) - 1) // ((1 << i) - 1))
        cut.append(i * copies - p)
    tally: dict[tuple[int, int, int], int] = {}
    m = 0
    while m != full:
        ones = ((m + 1) & ~m).bit_length() - 1  # trailing 1 letters
        i = p - ones  # the period of the next prenecklace
        m = ((m >> ones) + 1) * repeat[i] >> cut[i]
        if p % i:
            continue
        b = m >> 1 | (m & 1) << (p - 1)
        c = m >> q | (m & low) << (p - q)
        if m | b | c != full:
            continue
        three = (m & b & c).bit_count()
        two = (m & b | m & c | b & c).bit_count() - three
        key = (two, three, m.bit_count() & 1)
        tally[key] = tally.get(key, 0) + i
    # Ryser's sign is (-1)^(p - |m|)
    return sum(n * 2**a * 3**t * (-1) ** (p + i) for (a, t, i), n in tally.items())


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


class Ratio(Record):
    """A positive rational ``numerator/denominator`` in lowest terms.

    Its str is that of :class:`fractions.Fraction`: ``n/d``, or ``n``
    alone when d = 1.  :func:`_lowest_terms` builds one.
    """

    __slots__ = ("numerator", "denominator")

    def __str__(self) -> str:
        if self.denominator == 1:
            return str(self.numerator)
        return f"{self.numerator}/{self.denominator}"


def _lowest_terms(n: int, d: int) -> Ratio:
    """The ratio n/d (d > 0), divided through by gcd(n, d)."""
    g = gcd(n, d)
    return Ratio(n // g, d // g)


class PermanentReport(Record):
    """Permanent value, coefficient statistics and exact bound checks.

    ``d11`` is the permanent of the 0-1 band circulant and ``abs_sum``
    the sum of |a(r, s)| over the signed polynomial; ``max_coeff`` is
    M(p, q) and ``n_monomials`` N(p, q).  ``lower_bound`` is the
    :class:`Ratio` 3^p p! / p^p and ``upper_bound`` the integer
    ceil(6^(p/3)).
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
    by default), and :func:`_counts` checks the one against the other.
    With the ``cycle_cover`` backend the signed polynomial is the DP's
    own, so d11 comes from Ryser instead and only the sums can be
    compared; past RYSER_LIMIT the report is refused
    (:class:`TooLarge`) rather than compare the DP with itself.  On
    every other backend the DP runs before the signed polynomial is
    computed, so its own budget check refuses an over-budget DP before
    a slow route runs (Bareiss at (96, 48): the README limits table's
    ``BAREISS_LIMIT`` row).
    """
    PermClassKey.check_pair(p, q)
    unsigned = None
    if backend != "cycle_cover":
        unsigned = cycle_cover_counts(p, q)
    elif p > RYSER_LIMIT:
        raise TooLarge(
            f"with the cycle_cover backend d11 must come from Ryser's "
            f"expansion, which is limited to p <= {RYSER_LIMIT}"
        )
    return _report(p, q, phi_polynomial(p, q, backend), unsigned)


def _counts(
    p: int, q: int, signed: BiPoly, unsigned: BiPoly | None
) -> tuple[int, int, int, bool]:
    """d11, M and N of (p, q) from its signed and its unsigned polynomial, checked.

    Since no monomial mixes signs, the unsigned DP must equal the signed
    polynomial with every coefficient made absolute, term by term, and
    its value at x = y = 1, d11, must equal the sum of the absolute
    coefficients.  M and N are read off the signed polynomial and must
    equal plain ``max`` and ``len`` over the DP's term map.  With no
    unsigned polynomial (the signed one is the DP's own) d11 comes from
    Ryser, N must count the classes that the support rule lists
    (:meth:`PermClassKey.nonempty_profiles`), and M has no second route.
    Any disagreement raises :class:`InternalInconsistency`.  Returns
    d11, M, N and whether d11/N <= M <= d11.
    """
    max_coeff = signed.max_abs_coefficient()
    n_monomials = len(signed)
    if unsigned is None:
        d11 = permanent_ryser(p, q)
        classes = len(PermClassKey.nonempty_profiles(p, q))
        if n_monomials != classes:
            raise InternalInconsistency(
                f"N = {n_monomials} differs from the {classes} nonempty "
                f"classes for (p={p}, q={q})"
            )
    else:
        if unsigned != signed.termwise_abs():
            raise InternalInconsistency(
                f"the unsigned DP differs from the absolute determinant "
                f"term by term for (p={p}, q={q})"
            )
        d11 = unsigned.evaluate(1, 1)
        counts = unsigned.terms.values()
        if max_coeff != max(counts):
            raise InternalInconsistency(
                f"M = {max_coeff} differs from the largest DP count "
                f"{max(counts)} for (p={p}, q={q})"
            )
        if n_monomials != len(counts):
            raise InternalInconsistency(
                f"N = {n_monomials} differs from the {len(counts)} DP terms "
                f"for (p={p}, q={q})"
            )
    abs_sum = signed.abs_coefficient_sum()
    if d11 != abs_sum:
        raise InternalInconsistency(
            f"permanent {d11} differs from the absolute coefficient sum "
            f"{abs_sum} for (p={p}, q={q})"
        )
    sandwich_ok = d11 <= max_coeff * n_monomials and max_coeff <= d11
    return d11, max_coeff, n_monomials, sandwich_ok


def _report(p: int, q: int, signed: BiPoly, unsigned: BiPoly | None) -> PermanentReport:
    """The report of (p, q): :func:`_counts`, then both bounds.

    A printed ``lower_bound`` n/d must have gcd(n, d) = 1 and
    n p^p = d 3^p p!, and a printed ``upper_bound`` c must have
    (c-1)^3 < 6^p <= c^3; either fault raises
    :class:`InternalInconsistency`.  No bound check uses a float: the
    lower ones cross-multiply, the upper ones cube.  abs_sum is d11,
    which :func:`_counts` has checked against it.
    """
    d11, max_coeff, n_monomials, sandwich_ok = _counts(p, q, signed, unsigned)
    top, bottom = 3**p * factorial(p), p**p
    lower = _lowest_terms(top, bottom)
    n, d = lower.numerator, lower.denominator
    if gcd(n, d) != 1 or n * bottom != d * top:
        raise InternalInconsistency(
            f"lower bound {lower} is not 3^{p} {p}!/{p}^{p} in lowest terms"
        )
    upper = _ceil_cube_root(6**p)
    if not (upper - 1) ** 3 < 6**p <= upper**3:
        raise InternalInconsistency(f"upper bound {upper} is not ceil(6^({p}/3))")
    return PermanentReport(
        p=p,
        q=q,
        d11=d11,
        abs_sum=d11,
        max_coeff=max_coeff,
        n_monomials=n_monomials,
        lower_bound=lower,
        upper_bound=upper,
        lower_ok=top <= d11 * bottom,
        upper_ok=d11**3 <= 6**p,
        sandwich_ok=sandwich_ok,
    )


class GrowthRow(Record):
    """One line of the max-coefficient growth table.

    ``root`` is the float max_coeff ** (1/p), printed to 4 decimals.
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


def _root(m: int, p: int) -> float:
    """m ** (1/p), through the logarithm so that no m is too large for it."""
    return exp(log(m) / p)


def growth_table(q: int, p_max: int) -> list[GrowthRow]:
    """Max-coefficient growth for fixed q, p from q+1 (at least 3) up.

    A table is refused up front if p_max passes NEWTON_LIMIT, which
    also bounds its length, or if the DP plan that
    :func:`cover_count_rows` picks is over budget.  Then the rows that
    one transfer-matrix walk makes cheaper take their counts from it,
    and the others from the DP routed per p.  Every row is checked
    against |Newton| term by term, as :func:`bounds_report` checks it
    (:func:`_counts`), and builds none of the bounds, which a row does
    not print.  The display column, the float p-th root of M, is read
    back from its 4 printed decimals as N / 10^4 and checked in
    integers: (N (10^4 - 1))^p <= M 10^(8p) <= (N (10^4 + 1))^p, a
    relative tolerance of 10^-4 that the rounding to 4 decimals (at
    most 5 10^-5, since the root is at least 1) cannot trip.
    """
    if q < 2:
        raise ValueError(f"q must be at least 2, got q={q}")
    p_min = max(3, q + 1)
    if p_max < p_min:
        raise ValueError(f"p_max must be at least {p_min} for q={q}")
    if p_max > NEWTON_LIMIT:
        raise TooLarge(
            f"each growth row runs Newton's identities, limited to p <= {NEWTON_LIMIT}"
        )
    walked = cover_count_rows(q, p_min, p_max)
    rows = []
    for p in range(p_min, p_max + 1):
        unsigned = walked.get(p) or cycle_cover_counts(p, q)
        d11, max_coeff, n_monomials, sandwich_ok = _counts(
            p, q, phi_polynomial(p, q), unsigned
        )
        root = _root(max_coeff, p)
        n = int(f"{root:.4f}".replace(".", ""))
        if not (n * 9999) ** p <= max_coeff * 10 ** (8 * p) <= (n * 10001) ** p:
            raise InternalInconsistency(
                f"printed root {root:.4f} is not M^(1/{p}) to 1e-4 for (p={p}, q={q})"
            )
        rows.append(GrowthRow(p, q, max_coeff, d11, n_monomials, root, sandwich_ok))
    return rows


def growth_table_csv(rows: list[GrowthRow]) -> str:
    """CSV with header p,q,M,d11,n_monomials,root (root to 4 decimals)."""
    lines = ["p,q,M,d11,n_monomials,root"]
    for r in rows:
        lines.append(
            f"{r.p},{r.q},{r.max_coeff},{r.d11},{r.n_monomials},{r.root:.4f}"
        )
    return "\n".join(lines) + "\n"
