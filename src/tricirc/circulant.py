"""The cross-check routes for the determinant of the three-band circulant.

The matrix has 1 on the diagonal, -x on the cyclic band at offset 1
and -y on the cyclic band at offset q (:class:`CirculantSpec`, whose
home is :mod:`tricirc.phi` with :func:`reduce_theta` and the default
route ``det_newton``).  Its determinant is a bivariate integer
polynomial; this module computes it by three more exact routes, each
independent of Newton's identities, plus an advisory floating-point
cross-check over complex roots of unity:

* ``det_bareiss``      -- fraction-free elimination over the polynomial ring;
* ``det_cycle_cover``  -- bitmask transfer DP counting cycle covers, with the
                          term sign attached from the gcd parity rule to
                          the DP's one result, the unsigned polynomial
                          sum N(r, s) x^r y^s (:func:`cycle_cover_counts`);
* ``det_bruteforce``   -- Leibniz expansion over the nonzero entries
                          (p <= ``SEARCH_LIMIT``), the oracle;
* ``det_float_check``  -- product over complex p-th roots of unity at a
                          fixed sample grid, advisory only.

These routes live apart from the default one so that a ``phi`` or
``coeff`` job neither compiles them nor loads what they import;
``phi`` imports this module only when ``--backend`` names one of them,
:mod:`tricirc.permanent` (for ``permanent`` and ``growth``) imports it
directly, and ``verify`` only for the suites that run these
routes (``support``, ``sign``, ``cycle`` and ``permanent``).  :mod:`cmath`
and :mod:`fractions` (which loads :mod:`decimal` and :mod:`numbers`)
are imported inside the float check, their only user in the package,
so no command loads them.  The routes
stay in this module, under these names, because the benchmark imports
``cycle_cover_counts`` and the Bareiss and float-check routes from here
and traces them as ``circulant.*``.  The functions of :mod:`tricirc.phi`
and :mod:`tricirc.bipoly` are called through their modules, so each
has one binding; ``CirculantSpec`` and ``reduce_theta`` are also
importable from here by name, as ``benchmark/make_refs.py`` imports them.

Elimination and the DP need not run at q itself.  Re-indexing Z_p
maps the determinant at q exactly onto the one at 1/q, 1-q and their
compositions, whose one table is :func:`tricirc.phi.canonical_images`,
so each runs at its cheapest image and maps the result back through
:func:`tricirc.phi.from_image`: elimination at the smallest image
other than p/2, the DP at the smallest image of all, since it walks
the offsets 0, 1 and q forward in a window of q + 1 cells.  The two
differ only at q = p/2 and p/2 + 1, where the DP runs at p/2 and
elimination at p/2 + 1.  A growth table's rows from p = 2q - 1 up may
instead share one walk at q itself (:func:`cover_count_rows`), routed
by the DP's fitted cost.  Newton and brute force stay at q, so the
``sign`` suite compares routes that ran at two different offsets
wherever q is not its own smallest image.

Each exact route has a declared size limit and raises :class:`TooLarge`
beyond it instead of starting a run of unbounded length.  The DP's is
a work budget on the work that runs: one DP at the window of its image
(:func:`cycle_cover_counts`), a growth table on the plan that
:func:`cover_count_rows` picks.  All functions are pure; different
specs or backends may run concurrently.
"""

from functools import lru_cache

from . import bipoly, phi
from .bipoly import ONE, ZERO, BiPoly
from .errors import InternalInconsistency, TooLarge
# reduce_theta is not used here: benchmark/make_refs.py imports it from this module
from .phi import SEARCH_LIMIT, CirculantSpec, PermClassKey, Record, reduce_theta

#: largest p accepted by fraction-free elimination; (96, 48), run at
#: its image 49, is the README limits table's row
BAREISS_LIMIT = 96

#: work budget of the cycle-cover DP, in the units of :func:`dp_cost`;
#: it admits (24, 12) at 13 bits, (32, 13) at 6 (its image 5) and
#: (3000, 2), and refuses (28, 14) at 15 bits, (3000, 3) and (4000, 2);
#: README's other measured times give the DP's time at each
DP_BUDGET = 15 * 10**8


# ---------------------------------------------------------------------------
# Bareiss fraction-free elimination
# ---------------------------------------------------------------------------

def det_bareiss(spec: CirculantSpec) -> BiPoly:
    """Exact determinant by fraction-free elimination, at the cheapest image of q.

    The elimination runs at the smallest image of q in
    :func:`tricirc.phi.canonical_images` other than p/2 and is mapped
    back.  Small offsets eliminate fastest, except p/2, which
    eliminates slower than its image p/2 + 1, and over every pair with
    p <= 24 this rule is faster than elimination at q itself (README,
    "Other measured times").  p/2 is never the only image, since
    1 - p/2 = p/2 + 1 mod p.
    """
    p, q = phi._require_canonical(spec)
    if p > BAREISS_LIMIT:
        raise TooLarge(f"elimination is limited to p <= {BAREISS_LIMIT}")
    ways = phi.canonical_images(p, q)
    image = min(g for g in ways if 2 * g != p)
    return phi.from_image(_bareiss(p, image).terms, p, ways[image])


def _bareiss(p: int, q: int) -> BiPoly:
    """Fraction-free elimination of the (p, q) matrix itself.

    Step k takes each entry a of a row below the pivot piv to
    (a piv - r b) / prev, exactly: r is the row's entry in column k, b
    the pivot row's entry in a's column and prev the previous pivot (ONE
    at first).  While piv == prev the step is a - r b / prev, which
    touches only the pivot row's columns and no row with r = 0, so the
    banded phase is cheap.  Every leading principal minor has constant
    term 1 (at x = y = 0 the matrix is the identity), so no pivot is
    zero and no row is swapped; that is checked at runtime, and it gives
    every divisor the constant term 1 that ``bipoly.exact_div`` needs.
    Rows are sparse column maps.
    """
    mx = BiPoly.monomial(-1, 1, 0)
    my = BiPoly.monomial(-1, 0, 1)
    rows: list[dict[int, BiPoly]] = []
    for i in range(p):
        rows.append({i: ONE, (i + 1) % p: mx, (i + q) % p: my})

    prev = ONE
    for k in range(p - 1):
        piv = rows[k].get(k, ZERO)
        if piv.constant_term() != 1:
            raise InternalInconsistency(
                f"pivot at step {k} lost its unit constant term: {piv!r}"
            )
        same = piv == prev
        pivot_row = {j: v for j, v in rows[k].items() if j > k}
        for i in range(k + 1, p):
            row = rows[i]
            rik = row.pop(k, ZERO)
            if same and rik.is_zero():
                continue
            for j in pivot_row if same else set(row).union(pivot_row):
                a, b = row.get(j, ZERO), pivot_row.get(j, ZERO)
                if same:
                    nv = a - bipoly.exact_div(rik * b, prev)
                else:
                    nv = bipoly.exact_div(a * piv - rik * b, prev)
                if nv.is_zero():
                    row.pop(j, None)
                else:
                    row[j] = nv
        prev = piv
    det = rows[p - 1].get(p - 1, ZERO)
    if det.constant_term() != 1:
        raise InternalInconsistency("determinant lost its unit constant term")
    return det


# ---------------------------------------------------------------------------
# Leibniz expansion over the nonzero entries (the oracle)
# ---------------------------------------------------------------------------

def _perm_sign(images: list[int]) -> int:
    n = len(images)
    seen = [False] * n
    cycles = 0
    for start in range(n):
        if seen[start]:
            continue
        cycles += 1
        j = start
        while not seen[j]:
            seen[j] = True
            j = images[j]
    return -1 if (n - cycles) % 2 else 1


def det_bruteforce(spec: CirculantSpec) -> BiPoly:
    """Determinant as the Leibniz sum over the nonzero entries (p <= ``SEARCH_LIMIT``).

    Row i holds 1, -x and -y in columns i, i+1 and i+q (mod p) and zero
    elsewhere, so a permutation that sends some row to any other column
    has a zero factor.  A depth-first walk over rows 0..p-1 picks one of
    the three nonzero columns per row, skipping columns already used,
    and each complete pick sigma adds sgn(sigma) * (-x)^r * (-y)^s.
    That is the whole p!-term sum with the zero terms left out.  Simple
    on purpose, and sharing no code with the class search of
    :mod:`tricirc.permclass`: this is the ground-truth oracle the fast
    backends and that search are judged against.  Its times at p = 9
    and at ``SEARCH_LIMIT`` are among README's other measured times.
    """
    p, q = phi._require_canonical(spec)
    if p > SEARCH_LIMIT:
        raise TooLarge(f"brute force is limited to p <= {SEARCH_LIMIT}")
    # column -> (x power, y power) of the nonzero entries of each row
    rows = [
        {i: (0, 0), (i + 1) % p: (1, 0), (i + q) % p: (0, 1)} for i in range(p)
    ]
    acc: dict[tuple[int, int], int] = {}
    images = [0] * p

    def walk(i: int, used: int, r: int, s: int) -> None:
        if i == p:
            sgn = _perm_sign(images)
            key = (r, s)
            acc[key] = acc.get(key, 0) + (-sgn if (r + s) % 2 else sgn)
            return
        for col, (dr, ds) in rows[i].items():
            if not used >> col & 1:
                images[i] = col
                walk(i + 1, used | 1 << col, r + dr, s + ds)

    walk(0, 0, 0, 0)
    return BiPoly(acc)


# ---------------------------------------------------------------------------
# cycle-cover transfer DP
# ---------------------------------------------------------------------------

def window_width(p: int, q: int) -> int:
    """Occupancy-window width of the DP for a canonical (p, q).

    The DP walks the offsets 0, 1 and q forward in a window of q + 1
    cells, and :func:`cycle_cover_counts` runs it at the smallest image
    of q (:func:`tricirc.phi.canonical_images`), so the width is that
    image plus one.  1 - q mod p is always an image, so q near p costs
    the same as q near 0.
    """
    return min(phi.canonical_images(p, q)) + 1


def dp_cost(p: int, q: int) -> float:
    """Estimated work of the DP for (p, q), p^2 (1 + p/1000) 2.9^w.

    w is :func:`window_width`, the window the DP runs in.  Each window
    bit doubles the seam boundaries and adds live states, about 2.9x in
    all; p enters through the p steps per boundary and the packed
    integers of up to 2p^2 bits, whose additions grow faster than their
    length once they pass a few hundred kilobits (p in the thousands).
    Fitted to 42 timed runs (p = 24..4000, w = 3..15); the sample's
    least run time and the time of one unit are among README's other
    measured times.  An estimate past the float range (a window of
    about 667 bits or more) is infinite.
    """
    return _fitted_cost(p, window_width(p, q))


def _fitted_cost(p: int, w: int) -> float:
    """:func:`dp_cost`'s fitted form for p steps in a w-bit window."""
    try:
        return p * p * (1 + p / 1000) * 2.9**w
    except OverflowError:
        return float("inf")


def _check_budget(cost: float, what: str) -> None:
    """Raise :class:`TooLarge` naming the DPs ``what`` if ``cost`` is over budget."""
    if cost > DP_BUDGET:
        # as many significant digits as tell the two apart (17 always do)
        digits = next(
            d for d in range(2, 18) if f"{cost:.{d}g}" != f"{DP_BUDGET:.{d}g}"
        )
        raise TooLarge(
            f"the cycle-cover DP for {what} is estimated at "
            f"{cost:.{digits}g} work units, over the budget of "
            f"{DP_BUDGET:.{digits}g}"
        )


@lru_cache(maxsize=None)
def cycle_cover_counts(p: int, q: int) -> BiPoly:
    """The permanent's generating polynomial sum N(r, s) x^r y^s.

    N(r, s) counts bijections of Z_p whose displacements take the value
    1 exactly r times, q exactly s times and 0 elsewhere; it is |a(r, s)|,
    so the maps of :func:`tricirc.phi.canonical_images` carry it over
    once their signs are dropped.  The DP runs at the smallest image,
    whose forward window is the narrowest and the one the budget prices,
    and its counts are mapped back by :func:`tricirc.phi.from_image` and
    taken termwise absolute.  A refusal names (p, q) as asked; the checks
    on the DP's result name the pair it ran at.  The result is cached,
    and a :class:`BiPoly` cannot be changed in place.
    """
    PermClassKey.check_pair(p, q)
    ways = phi.canonical_images(p, q)
    image = min(ways)
    _check_budget(
        _fitted_cost(p, image + 1), f"p={p}, q={q} ({image + 1}-bit window)"
    )
    counts = _cover_count_rows(image, p, p)[0]
    return phi.from_image(counts, p, ways[image]).termwise_abs()


def cover_count_rows(q: int, p_min: int, p_max: int) -> dict[int, BiPoly]:
    """Price the table of rows p_min..p_max; return the rows a walk makes cheaper.

    For p >= 2q - 1 the window of q is no wider than that of its image
    1 - q mod p = p + 1 - q, so one walk at q reads the counts of every
    row p from 2q - 1 up off its step p (:func:`_cover_count_rows`).
    A row whose image 1/q is small has a far narrower window of its
    own, though: (23, 12) runs at 2.  So the rows from max(p_min,
    2q - 1) to p_max are walked only when :func:`dp_cost`'s fitted form
    gives the walk, p_max steps in a (q + 1)-bit window, less work than
    their own DPs; the rows below 2q - 1 always take their own.  The
    table is refused (:class:`TooLarge`) before any walk if that plan is
    over DP_BUDGET, so no row's own DP is refused after it.  Maps each
    walked p to the polynomial :func:`cycle_cover_counts` gives for (p, q).
    """
    first = min(max(p_min, 2 * q - 1), p_max + 1)
    below = sum(dp_cost(p, q) for p in range(p_min, first))
    per_row = sum(dp_cost(p, q) for p in range(first, p_max + 1))
    walk = _fitted_cost(p_max, q + 1)
    walks = walk < per_row  # never with no rows
    plan = f"one walk from p={first}" if walks else "one per p"
    _check_budget(below + min(walk, per_row), f"p={p_min}..{p_max}, q={q} ({plan})")
    if not walks:
        return {}
    rows = _cover_count_rows(q, first, p_max)
    return {p: BiPoly(counts) for p, counts in enumerate(rows, first)}


def _cover_count_rows(
    q: int, p_lo: int, p_hi: int
) -> list[dict[tuple[int, int], int]]:
    """The cycle covers of (p, q) itself for every p in p_lo..p_hi, q < p_lo.

    A transfer DP over positions with a bitmask of claimed images
    inside a sliding window of q + 1 cells: position i claims i, i + 1
    or i + q.  The cyclic seam of Z_p is closed by enumerating the
    boundary mask and requiring the run to reproduce it after p steps.
    The transfer depends on q alone, so the count for p is the trace of
    its p-th power (Stanley, EC1 section 4.7), and one walk of p_hi
    steps per boundary reads every row's trace on its way.

    The DP tracks s alone: a complete cover has r + sq = 0 (mod p) and
    r + s <= p, which fixes r for every s > 0, while s = 0 has exactly
    two covers, the identity (r = 0) and the full shift (r = p).  So
    each DP value packs p_hi + 1 count slots, one per s.  Both facts
    are checked on every row (:class:`InternalInconsistency` otherwise).
    Returns one {(r, s): N} map per row.
    """
    # Each DP value is one big integer packing the slots by s; a slot holds
    # the count of partial assignments, which is < 3^p_hi < 2^wbits (whole
    # bytes, so each row's total unpacks in one pass).
    wbits = 8 * max(8, -(-p_hi // 4))
    # (window bit, y shift) of the moves to offsets 0, 1 and q
    moves = ((1, 0), (2, 0), (1 << q, wbits))
    # Every step applies the same transfer, so the successors of each
    # mask (with the y shift of the move) are tabulated once.
    succ = [
        tuple(
            ((mask | bit) >> 1, shift)
            for bit, shift in moves
            if not mask & bit and (mask | bit) & 1
        )
        for mask in range(1 << q)
    ]

    # the steps before each row's trace: p_lo, then one per row
    legs = [p_lo] + [1] * (p_hi - p_lo)
    totals = [0] * len(legs)
    # the top window cell can never be claimed from across the seam
    for boundary in range(1 << q):
        states = {boundary: 1}
        for row, leg in enumerate(legs):
            for _ in range(leg):
                nxt: dict[int, int] = {}
                for mask, val in states.items():
                    for key, shift in succ[mask]:
                        add = val << shift if shift else val
                        if key in nxt:
                            nxt[key] += add
                        else:
                            nxt[key] = add
                # nxt is never empty: if cell 0 is claimed, the move onto the
                # top cell (in no mask) is open, else the offset-0 move claims it
                states = nxt
            totals[row] += states.get(boundary, 0)
    return [_unpack_counts(t, p, q, wbits) for p, t in enumerate(totals, p_lo)]


def _unpack_counts(
    total: int, p: int, q: int, wbits: int
) -> dict[tuple[int, int], int]:
    """Split the DP's packed total (slot s at bit wbits*s) into {(r, s): N}.

    s = 0 must hold exactly the identity and the full shift, and every
    other nonzero slot must leave r = -sq mod p with r + s <= p;
    :class:`InternalInconsistency` otherwise.  wbits is a multiple of 8.
    """
    size = wbits // 8
    data = total.to_bytes(size * (p + 1), "little")
    counts = [
        int.from_bytes(data[i:i + size], "little")
        for i in range(0, len(data), size)
    ]
    if counts[0] != 2:
        raise InternalInconsistency(
            f"s = 0 holds {counts[0]} covers for p={p}, q={q}, not 2"
        )
    out = {(0, 0): 1, (p, 0): 1}
    for s, c in enumerate(counts[1:], 1):
        if c:
            r = -s * q % p
            if r + s > p:
                raise InternalInconsistency(
                    f"{c} covers with s={s} need r={r}, so r+s > p={p}"
                )
            out[r, s] = c
    return out


def det_cycle_cover(spec: CirculantSpec) -> BiPoly:
    """Determinant from unsigned cycle-cover counts plus the sign rule.

    Every permutation contributing to x^r y^s has sign
    (-1)^(r+s+gcd(r,s,l)) with l = (r+sq)/p, so the monomial's signed
    coefficient is (-1)^gcd(r,s,l) times the plain count
    (:attr:`PermClassKey.term_sign`).  p divides r+sq by construction:
    the DP derives r from s at the image of q it runs at, and the maps
    back from an image keep that divisibility.
    """
    p, q = phi._require_canonical(spec)
    return BiPoly(
        {
            (r, s): PermClassKey(p, q, r, s).term_sign * n
            for (r, s), n in cycle_cover_counts(p, q).terms.items()
        }
    )


# ---------------------------------------------------------------------------
# floating-point cross-check
# ---------------------------------------------------------------------------

#: relative tolerance of the float check
FLOAT_CHECK_RTOL = 1e-6


class FloatCheckReport(Record):
    """Outcome of the roots-of-unity product cross-check."""

    __slots__ = ("passed", "max_abs_deviation", "worst_point", "points")


def det_float_check(spec: CirculantSpec, candidate: BiPoly) -> FloatCheckReport:
    """Compare a candidate determinant against the eigenvalue product.

    Evaluates prod_j (1 - x w^j - y w^(qj)) over the complex p-th roots
    of unity at every point of the grid x, y in {-1, -1/2, 1/2, 1} and
    compares with the candidate evaluated exactly.  Passes iff each
    deviation stays below FLOAT_CHECK_RTOL * (1 + |exact value|).
    Advisory only: a failure is reported, never raised.
    """
    import cmath  # only this advisory check uses complex arithmetic
    from fractions import Fraction  # only its sample grid uses fractions

    p, q = phi._require_canonical(spec)
    roots = [cmath.exp(2j * cmath.pi * j / p) for j in range(p)]
    worst = 0.0
    worst_pt = (0.0, 0.0)
    ok = True
    n_pts = 0
    grid = (-1, Fraction(-1, 2), Fraction(1, 2), 1)
    for x0 in grid:
        for y0 in grid:
            n_pts += 1
            prod = complex(1.0)
            xf, yf = float(x0), float(y0)
            for j in range(p):
                prod *= 1 - xf * roots[j] - yf * roots[(q * j) % p]
            exact = candidate.evaluate(x0, y0)
            dev = abs(prod - complex(exact))
            if dev > worst:
                worst = dev
                worst_pt = (xf, yf)
            if dev >= FLOAT_CHECK_RTOL * (1 + abs(exact)):
                ok = False
    return FloatCheckReport(ok, worst, worst_pt, n_pts)
