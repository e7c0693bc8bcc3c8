"""The p-by-p circulant with bands at offsets 0, t and q, and its determinant.

The matrix has 1 on the diagonal, -x on the cyclic band at offset t
(canonically t=1) and -y on the cyclic band at offset q.  Its
determinant is a bivariate integer polynomial; this module computes it
by three independent exact routes plus an advisory floating-point
cross-check over complex roots of unity:

* ``det_bareiss``      -- fraction-free elimination over the polynomial ring;
* ``det_cycle_cover``  -- bitmask transfer DP counting cycle covers, with the
                          term sign attached from the gcd parity rule;
* ``det_bruteforce``   -- full permutation expansion (p <= 10), the oracle;
* ``det_float_check``  -- product over complex p-th roots of unity at a
                          fixed sample grid, advisory only.

All functions are pure; different specs or backends may run concurrently.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .bipoly import ONE, ZERO, BiPoly, exact_div
from .errors import IrreducibleSpec, StateSpaceTooLarge, TooLarge

#: ceiling on the occupancy-mask width of the cycle-cover DP
MAX_WINDOW_BITS = 16

#: largest p accepted by the brute-force permutation expansion
BRUTEFORCE_LIMIT = 10


@dataclass(frozen=True)
class CirculantSpec:
    """Parameters (p, q, t) of the three-band circulant.

    Canonical specs have t=1 and 2 <= q <= p-1; non-canonical specs are
    accepted only as input to :func:`reduce_theta`, so t or q must be
    invertible modulo p (:class:`IrreducibleSpec` otherwise, checked
    before the next rule).  The three band offsets 0, t, q must be
    pairwise distinct.
    """

    p: int
    q: int
    t: int = 1

    def __post_init__(self):
        if self.p < 3:
            raise ValueError(f"p must be at least 3, got {self.p}")
        if not 1 <= self.q < self.p:
            raise ValueError(f"q must lie in [1, p-1], got q={self.q}")
        if not 1 <= self.t < self.p:
            raise ValueError(f"t must lie in [1, p-1], got t={self.t}")
        if math.gcd(self.t, self.p) > 1 and math.gcd(self.q, self.p) > 1:
            raise IrreducibleSpec(
                f"gcd(t={self.t}, p={self.p}) > 1 and "
                f"gcd(q={self.q}, p={self.p}) > 1: no canonical form is known"
            )
        if self.t == self.q:
            raise ValueError("band offsets t and q must be distinct")

    @property
    def is_canonical(self) -> bool:
        return self.t == 1 and self.q >= 2


class ReducedSpec(NamedTuple):
    """Result of :func:`reduce_theta`."""

    spec: CirculantSpec
    swapped: bool  # True when the x and y roles were exchanged


def reduce_theta(spec: CirculantSpec) -> ReducedSpec:
    """Rewrite a general (p, q, t) spec in the canonical form t=1.

    When gcd(t, p) = 1 the product over roots of unity can be reindexed
    so the x band sits at offset 1 and the y band at offset q*t^-1 mod p.
    Otherwise gcd(q, p) = 1 (a spec with neither offset invertible
    cannot be built) and the same works with the variable roles
    exchanged (flagged in the result).
    """
    p = spec.p
    if spec.is_canonical:
        return ReducedSpec(spec, False)
    if math.gcd(spec.t, p) == 1:
        qp = spec.q * pow(spec.t, -1, p) % p
        return ReducedSpec(CirculantSpec(p, qp, 1), False)
    qp = spec.t * pow(spec.q, -1, p) % p
    return ReducedSpec(CirculantSpec(p, qp, 1), True)


def _require_canonical(spec: CirculantSpec) -> None:
    if not spec.is_canonical:
        raise ValueError(
            f"{spec} is not canonical; apply reduce_theta first"
        )


def band_matrix(spec: CirculantSpec) -> list[list[BiPoly]]:
    """The p-by-p matrix with 1 at offset 0, -x at offset t, -y at offset q."""
    p = spec.p
    mx = BiPoly.monomial(-1, 1, 0)
    my = BiPoly.monomial(-1, 0, 1)
    rows = []
    for i in range(p):
        row = [ZERO] * p
        row[i] = ONE
        row[(i + spec.t) % p] = mx
        row[(i + spec.q) % p] = my
        rows.append(row)
    return rows


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
# brute-force permutation expansion (the oracle)
# ---------------------------------------------------------------------------

def _perm_sign(images: tuple[int, ...]) -> int:
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
    """Determinant as a sum over all p! permutations (p <= 10).

    Keeps only permutations whose displacements (sigma(j)-j) mod p lie
    in {0, 1, q}; each contributes sgn(sigma) * (-x)^r * (-y)^s.  Slow
    and simple on purpose: this is the ground-truth oracle the fast
    backends are judged against.
    """
    _require_canonical(spec)
    p, q = spec.p, spec.q
    if p > BRUTEFORCE_LIMIT:
        raise TooLarge(f"brute force is limited to p <= {BRUTEFORCE_LIMIT}")
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
            sgn = _perm_sign(images)
            if (r + s) % 2:
                sgn = -sgn
            key = (r, s)
            acc[key] = acc.get(key, 0) + sgn
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


@lru_cache(maxsize=None)
def cycle_cover_counts(p: int, q: int) -> tuple[tuple[int, int, int], ...]:
    """Number of cycle covers N(r, s) for every displacement profile.

    N(r, s) counts bijections of Z_p whose displacements take the value
    1 exactly r times, q exactly s times and 0 elsewhere.  Computed by
    a transfer DP over positions 0..p-1 with a bitmask of claimed
    images inside a sliding window; the cyclic seam is closed by
    enumerating the boundary mask and requiring the run to reproduce it.

    Returns a sorted tuple of (r, s, N) triples with N > 0 (cached, so
    treat it as immutable).
    """
    if p < 3 or not 2 <= q <= p - 1:
        raise ValueError(f"need p >= 3 and 2 <= q <= p-1, got p={p} q={q}")
    qe = q if q + 1 <= p - q + 2 else q - p
    offsets = (0, 1, qe)
    omin = min(offsets)
    width = max(offsets) - omin + 1
    if width > MAX_WINDOW_BITS:
        raise StateSpaceTooLarge(
            f"window needs {width} bits, ceiling is {MAX_WINDOW_BITS}"
        )

    # Each DP value is one big integer packing all (r, s) slots; a slot
    # holds the count of partial assignments, which is < 3^p < 2^wbits.
    wbits = max(64, 2 * p)
    stride_y = 1 << wbits
    stride_x = 1 << (wbits * (p + 1))
    moves = tuple(
        (1 << (off - omin), mult)
        for off, mult in ((0, 1), (1, stride_x), (qe, stride_y))
    )

    total = 0
    # the top window cell can never be claimed from across the seam
    for boundary in range(1 << (width - 1)):
        states = {boundary: 1}
        for _ in range(p):
            nxt: dict[int, int] = {}
            for mask, val in states.items():
                for bit, mult in moves:
                    if mask & bit:
                        continue
                    m2 = mask | bit
                    if not m2 & 1:
                        continue
                    key = m2 >> 1
                    add = val * mult
                    if key in nxt:
                        nxt[key] += add
                    else:
                        nxt[key] = add
            if not nxt:
                break
            states = nxt
        total += states.get(boundary, 0)

    out = []
    mask = stride_y - 1
    slot = 0
    while total:
        c = total & mask
        if c:
            r, s = divmod(slot, p + 1)
            out.append((r, s, c))
        total >>= wbits
        slot += 1
    return tuple(sorted(out))


def det_cycle_cover(spec: CirculantSpec) -> BiPoly:
    """Determinant from unsigned cycle-cover counts plus the sign rule.

    Every permutation contributing to x^r y^s has sign
    (-1)^(r+s+gcd(r,s,l)) with l = (r+sq)/p, so the monomial's signed
    coefficient is (-1)^gcd(r,s,l) times the plain count.
    """
    _require_canonical(spec)
    p, q = spec.p, spec.q
    terms = {}
    for r, s, n in cycle_cover_counts(p, q):
        rem, ell = (r + s * q) % p, (r + s * q) // p
        if rem:
            raise AssertionError(
                f"nonempty profile (r={r}, s={s}) with p not dividing r+sq"
            )
        k = math.gcd(r, s, ell)
        terms[(r, s)] = -n if k % 2 else n
    return BiPoly(terms)


# ---------------------------------------------------------------------------
# floating-point cross-check
# ---------------------------------------------------------------------------

#: sample grid for the float check
FLOAT_CHECK_GRID = (-1, Fraction(-1, 2), Fraction(1, 2), 1)

#: relative tolerance of the float check
FLOAT_CHECK_RTOL = 1e-6


@dataclass(frozen=True)
class FloatCheckReport:
    """Outcome of the roots-of-unity product cross-check."""

    passed: bool
    max_abs_deviation: float
    worst_point: tuple[float, float]
    points: int

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "max_abs_deviation": self.max_abs_deviation,
            "worst_point": list(self.worst_point),
            "points": self.points,
        }


def det_float_check(spec: CirculantSpec, candidate: BiPoly) -> FloatCheckReport:
    """Compare a candidate determinant against the eigenvalue product.

    Evaluates prod_j (1 - x w^j - y w^(qj)) over the complex p-th roots
    of unity at every grid point and compares with the candidate
    evaluated exactly.  Passes iff each deviation stays below
    FLOAT_CHECK_RTOL * (1 + |exact value|).  Advisory only: a failure
    is reported, never raised.
    """
    _require_canonical(spec)
    p, q = spec.p, spec.q
    roots = [cmath.exp(2j * cmath.pi * j / p) for j in range(p)]
    worst = 0.0
    worst_pt = (0.0, 0.0)
    ok = True
    n_pts = 0
    for x0 in FLOAT_CHECK_GRID:
        for y0 in FLOAT_CHECK_GRID:
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


# ---------------------------------------------------------------------------
# integer determinant (test utility)
# ---------------------------------------------------------------------------

def integer_det(matrix: list[list[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination.

    Row pivoting with sign tracking; used to spot-check the symbolic
    backends at random integer points.
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
