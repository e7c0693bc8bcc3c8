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
                          term sign attached from the gcd parity rule;
* ``det_bruteforce``   -- Leibniz expansion over the nonzero entries
                          (p <= 10), the oracle;
* ``det_float_check``  -- product over complex p-th roots of unity at a
                          fixed sample grid, advisory only.

These routes live apart from the default one so that a ``phi`` or
``coeff`` job neither compiles them nor loads what they import;
``phi`` imports this module only when ``--backend`` names one of them,
:mod:`tricirc.permanent` (for ``permanent`` and ``growth``) imports it
directly, and ``verify`` only for the suites that run these
routes (``support``, ``sign``, ``cycle`` and ``permanent``).  :mod:`cmath`
and :mod:`fractions` (which loads :mod:`decimal` and :mod:`numbers`)
are imported inside the float check, their only user here.  The routes
stay in this module, under these names, because the benchmark imports
``cycle_cover_counts`` and the Bareiss and float-check routes from here
and traces them as ``circulant.*``.

Each exact route has a declared size limit and raises :class:`TooLarge`
or :class:`StateSpaceTooLarge` beyond it instead of starting a run of
unbounded length.  All functions are pure; different specs or backends
may run concurrently.
"""

from __future__ import annotations

from functools import lru_cache

from .bipoly import ONE, ZERO, BiPoly, exact_div
from .errors import StateSpaceTooLarge, TooLarge
# reduce_theta is not used here: benchmark/make_refs.py imports it from this module
from .phi import CirculantSpec, PermClassKey, Record, _require_canonical, reduce_theta

#: largest p accepted by fraction-free elimination ((96, 48) takes
#: 20-30 s on a 2-CPU host with Python 3.11)
BAREISS_LIMIT = 96

#: work budget of the cycle-cover DP, in the units of :func:`dp_cost`
DP_BUDGET = 15 * 10**8

#: largest p accepted by the Leibniz expansion over the nonzero entries
#: (every q at p = 10 takes 7-9 ms, at p = 9 3-5 ms, on a 2-CPU host
#: with Python 3.11); the CLI's refusals and the goldens rest on it
BRUTEFORCE_LIMIT = 10


# ---------------------------------------------------------------------------
# Bareiss fraction-free elimination
# ---------------------------------------------------------------------------

def det_bareiss(spec: CirculantSpec) -> BiPoly:
    """Exact determinant by fraction-free elimination.

    No row permutations are ever needed: every leading principal minor
    of this matrix has constant term 1 (set x=y=0 and the matrix is the
    identity), so the diagonal pivot is never zero.  That fact is
    checked at runtime.  Rows are kept as sparse column maps; while the
    pivot equals the previous pivot the generic row rescale is the
    identity and is skipped, which makes the banded phase cheap.
    """
    _require_canonical(spec)
    p, q = spec.p, spec.q
    if p > BAREISS_LIMIT:
        raise TooLarge(f"elimination is limited to p <= {BAREISS_LIMIT}")
    mx = BiPoly.monomial(-1, 1, 0)
    my = BiPoly.monomial(-1, 0, 1)
    rows: list[dict[int, BiPoly]] = []
    for i in range(p):
        rows.append({i: ONE, (i + 1) % p: mx, (i + q) % p: my})

    prev = ONE
    for k in range(p - 1):
        piv = rows[k].get(k, ZERO)
        if piv.constant_term() != 1:
            raise AssertionError(
                f"pivot at step {k} lost its unit constant term: {piv!r}"
            )
        scale_is_identity = piv == prev
        pivot_row = [(j, v) for j, v in rows[k].items() if j > k]
        for i in range(k + 1, p):
            row = rows[i]
            rik = row.pop(k, None)
            if rik is None:
                if scale_is_identity:
                    continue
                for j, v in list(row.items()):
                    nv = exact_div(v * piv, prev)
                    if nv.is_zero():
                        del row[j]
                    else:
                        row[j] = nv
                continue
            if scale_is_identity:
                for j, bkj in pivot_row:
                    nv = row.get(j, ZERO) - exact_div(rik * bkj, prev)
                    if nv.is_zero():
                        row.pop(j, None)
                    else:
                        row[j] = nv
            else:
                cols = set(row) | {j for j, _ in pivot_row}
                for j in cols:
                    num = row.get(j, ZERO) * piv
                    bkj = rows[k].get(j)
                    if bkj is not None:
                        num = num - rik * bkj
                    nv = exact_div(num, prev)
                    if nv.is_zero():
                        row.pop(j, None)
                    else:
                        row[j] = nv
        prev = piv
    det = rows[p - 1].get(p - 1, ZERO)
    if det.constant_term() != 1:
        raise AssertionError("determinant lost its unit constant term")
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
    """Determinant as the Leibniz sum over the nonzero entries (p <= 10).

    Row i holds 1, -x and -y in columns i, i+1 and i+q (mod p) and zero
    elsewhere, so a permutation that sends some row to any other column
    has a zero factor.  A depth-first walk over rows 0..p-1 picks one of
    the three nonzero columns per row, skipping columns already used,
    and each complete pick sigma adds sgn(sigma) * (-x)^r * (-y)^s.
    That is the whole p!-term sum with the zero terms left out.  Simple
    on purpose, and sharing no code with the class search of
    :mod:`tricirc.permclass`: this is the ground-truth oracle the fast
    backends and that search are judged against.  Every q at p = 10
    takes under 10 ms (2-CPU host, Python 3.11).
    """
    _require_canonical(spec)
    p, q = spec.p, spec.q
    if p > BRUTEFORCE_LIMIT:
        raise TooLarge(f"brute force is limited to p <= {BRUTEFORCE_LIMIT}")
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

    The q band may be walked as displacement q or as displacement q-p;
    the narrower of the two windows is used, so q near p costs the same
    as q near 0.
    """
    return min(q + 1, p - q + 2)


def dp_cost(p: int, q: int) -> float:
    """Estimated work of :func:`cycle_cover_counts` (p, q), p^2 (1 + p/1000) 2.9^w.

    w is the window width.  Each window bit doubles the seam boundaries
    and adds live states, about 2.9x in all; p enters through the p
    steps per boundary and the packed integers of up to 2p^2 bits, whose
    additions grow faster than their length once they pass a few
    hundred kilobits (p in the thousands).  Fitted to 42 timed runs of
    0.2 s or more (p = 24..4000, w = 3..15) on a 2-CPU host with
    Python 3.11, where one unit took 2.0-6.4 ns.  An estimate past the
    float range (a window of about 667 bits or more) is infinite.
    """
    try:
        return p * p * (1 + p / 1000) * 2.9 ** window_width(p, q)
    except OverflowError:
        return float("inf")


def check_dp_budget(p: int, q: int, p_min: int | None = None) -> None:
    """Raise :class:`StateSpaceTooLarge` if the DP for (p, q) is over budget.

    With ``p_min`` the estimate is the sum of one DP for every p from
    p_min to p, as a table with one row per p runs them; the dearest
    DP, at p, is checked alone first, which bounds the length of the sum.

    DP_BUDGET admits (24, 12) at 13 bits (about 1.5-3.3 s on the host
    above) and (3000, 2) (about 4.5 s), and refuses (32, 13) at 14 bits
    (about 9.5 s), (28, 14) at 15 bits (about 16 s), (3000, 3) (about
    12 s) and (4000, 2) (about 10 s).
    """
    if p_min is None:
        cost = dp_cost(p, q)
        what = f"p={p}, q={q} ({window_width(p, q)}-bit window)"
    else:
        check_dp_budget(p, q)
        cost = sum(dp_cost(n, q) for n in range(p_min, p + 1))
        what = f"p={p_min}..{p}, q={q} (one per p)"
    if cost > DP_BUDGET:
        # as many significant digits as tell the two apart (17 always do)
        digits = next(
            d for d in range(2, 18) if f"{cost:.{d}g}" != f"{DP_BUDGET:.{d}g}"
        )
        raise StateSpaceTooLarge(
            f"the cycle-cover DP for {what} is estimated at "
            f"{cost:.{digits}g} work units, over the budget of "
            f"{DP_BUDGET:.{digits}g}"
        )


@lru_cache(maxsize=None)
def cycle_cover_counts(p: int, q: int) -> tuple[tuple[int, int, int], ...]:
    """Number of cycle covers N(r, s) for every displacement profile.

    N(r, s) counts bijections of Z_p whose displacements take the value
    1 exactly r times, q exactly s times and 0 elsewhere.  Computed by
    a transfer DP over positions 0..p-1 with a bitmask of claimed
    images inside a sliding window; the cyclic seam is closed by
    enumerating the boundary mask and requiring the run to reproduce it.

    The DP tracks s alone: a complete cover has r + sq = 0 (mod p) and
    r + s <= p, which fixes r for every s > 0, while s = 0 has exactly
    two covers, the identity (r = 0) and the full shift (r = p).  So
    each DP value packs p+1 count slots, one per s.  Both facts are
    checked on the result (AssertionError otherwise).

    Returns a sorted tuple of (r, s, N) triples with N > 0 (cached, so
    treat it as immutable).
    """
    PermClassKey.check_pair(p, q)
    check_dp_budget(p, q)
    width = window_width(p, q)
    # the q band walked as displacement q or q-p, whichever fits that window
    qe = q if width == q + 1 else q - p
    omin = min(0, qe)

    # Each DP value is one big integer packing the p+1 slots by s; a slot
    # holds the count of partial assignments, which is < 3^p < 2^wbits
    # (whole bytes, so the total unpacks in one pass).
    wbits = 8 * max(8, -(-p // 4))
    moves = tuple(
        (1 << (off - omin), shift)
        for off, shift in ((0, 0), (1, 0), (qe, wbits))
    )
    # Every step applies the same transfer, so the successors of each
    # mask (with the y shift of the move) are tabulated once.
    succ = [
        tuple(
            ((mask | bit) >> 1, shift)
            for bit, shift in moves
            if not mask & bit and (mask | bit) & 1
        )
        for mask in range(1 << (width - 1))
    ]

    total = 0
    # the top window cell can never be claimed from across the seam
    for boundary in range(1 << (width - 1)):
        states = {boundary: 1}
        for _ in range(p):
            nxt: dict[int, int] = {}
            for mask, val in states.items():
                for key, shift in succ[mask]:
                    add = val << shift if shift else val
                    if key in nxt:
                        nxt[key] += add
                    else:
                        nxt[key] = add
            # nxt is never empty: if cell 0 is claimed, the move onto the top
            # cell (in no mask) is open, else the offset-0 or q-p move claims it
            states = nxt
        total += states.get(boundary, 0)
    return _unpack_counts(total, p, q, wbits)


def _unpack_counts(
    total: int, p: int, q: int, wbits: int
) -> tuple[tuple[int, int, int], ...]:
    """Split the DP's packed total (slot s at bit wbits*s) into (r, s, N).

    s = 0 must hold exactly the identity and the full shift, and every
    other nonzero slot must leave r = -sq mod p with r + s <= p;
    AssertionError otherwise.  wbits is a multiple of 8.
    """
    size = wbits // 8
    data = total.to_bytes(size * (p + 1), "little")
    counts = [
        int.from_bytes(data[i:i + size], "little")
        for i in range(0, len(data), size)
    ]
    if counts[0] != 2:
        raise AssertionError(
            f"s = 0 holds {counts[0]} covers for p={p}, q={q}, not 2"
        )
    out = [(0, 0, 1), (p, 0, 1)]
    for s, c in enumerate(counts[1:], 1):
        if c:
            r = -s * q % p
            if r + s > p:
                raise AssertionError(
                    f"{c} covers with s={s} need r={r}, so r+s > p={p}"
                )
            out.append((r, s, c))
    return tuple(sorted(out))


def det_cycle_cover(spec: CirculantSpec) -> BiPoly:
    """Determinant from unsigned cycle-cover counts plus the sign rule.

    Every permutation contributing to x^r y^s has sign
    (-1)^(r+s+gcd(r,s,l)) with l = (r+sq)/p, so the monomial's signed
    coefficient is (-1)^gcd(r,s,l) times the plain count
    (:attr:`PermClassKey.term_sign`).  p divides r+sq by construction,
    since :func:`cycle_cover_counts` derives r from s.
    """
    _require_canonical(spec)
    p, q = spec.p, spec.q
    return BiPoly(
        {
            (r, s): PermClassKey(p, q, r, s).term_sign * n
            for r, s, n in cycle_cover_counts(p, q)
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

    _require_canonical(spec)
    p, q = spec.p, spec.q
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
