"""Permutation classes with cyclic displacements in {0, 1, q}.

For a permutation sigma of {1, ..., p} call (sigma(j) - j) mod p the
displacement of j.  The class with profile (r, s) collects the
permutations whose displacements take the value 1 exactly r times, q
exactly s times and 0 on the remaining p-r-s fixed points.

The class is nonempty iff p divides r+sq and r+s <= p; every member
then decomposes into k = gcd(r, s, (r+sq)/p) nontrivial cycles, each
walking r/k steps of size 1 and s/k steps of size q, and all members
share the sign (-1)^(r+s+k); ``StructureReport.fits`` checks a member
against that structure.  ``construct_witness`` builds an explicit
member from a lattice path that hugs the line s*x - r*y = 0.

The class key :class:`PermClassKey`, the one statement of these
support and sign rules, lives in :mod:`tricirc.phi` with the default
determinant route, because ``phi`` and ``coeff`` need the rules but no
permutation.  This module holds what only ``witness``, ``enumerate``
and ``verify`` run: :class:`Permutation`, the class search, lattice
paths (each its word of E and N steps from (0, 0)) and witnesses.  It
stays under this name because the benchmark traces
``permclass.construct_witness`` and ``permclass.enumerate_by_profile``.

Residues modulo p are always taken in {1, ..., p}: a reduction that
would give 0 gives p instead.
"""

from typing import Optional

from .errors import InternalInconsistency, TooLarge
from .phi import PermClassKey, Record

#: largest p accepted by exhaustive class enumeration
ENUMERATION_LIMIT = 10

#: largest p accepted by ``construct_witness``; ``tricirc witness`` at
#: p = 10^6 is the README limits table's row, and its memory is among
#: README's other measured times
WITNESS_LIMIT = 10**6


class Permutation(Record):
    """A permutation of {1, ..., p} stored in one-line notation."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError("images are not a bijection of {1, ..., p}")
        Record.__init__(self, images)

    @classmethod
    def _proven(cls, images: tuple) -> "Permutation":
        # a permutation whose images the caller has already proven a
        # bijection, stored without the constructor's sort
        sigma = object.__new__(cls)
        object.__setattr__(sigma, "images", images)
        return sigma

    @classmethod
    def identity(cls, p: int) -> "Permutation":
        return cls(range(1, p + 1))

    @property
    def p(self) -> int:
        return len(self.images)

    def cycles(self) -> list[tuple[int, ...]]:
        """The nontrivial cycles (no fixed points), each from its least point."""
        images = self.images
        out = []
        seen = [False] * (len(images) + 1)
        for start, j in enumerate(images, 1):
            if j == start or seen[start]:
                continue
            cyc = [start]
            while j != start:
                seen[j] = True
                cyc.append(j)
                j = images[j - 1]
            out.append(tuple(cyc))
        return out

    def sign(self) -> int:
        """(-1)^(p - c) for c cycles, fixed points included."""
        return _cycle_sign(self.cycles())

    def one_line(self) -> str:
        return "{" + ",".join(str(v) for v in self.images) + "}"


def _cycle_sign(cycles) -> int:
    # the sign rule (-1)^(moved points - nontrivial cycles), which is
    # (-1)^(p - c) for c cycles counting the fixed points
    return -1 if (sum(map(len, cycles)) - len(cycles)) % 2 else 1


def cycle_notation(cycles) -> str:
    """Cycles written as (a,b,...)(c,...), or () for none."""
    if not cycles:
        return "()"
    return "".join("(" + ",".join(map(str, c)) + ")" for c in cycles)


def displacement_profile(
    sigma: Permutation, p: int, q: int
) -> Optional[tuple[int, int, int]]:
    """Counts (r, s, fixed) of displacements 1, q and 0.

    Returns None when some displacement falls outside {0, 1, q}, i.e.
    the permutation belongs to no class.  A displacement lies in
    {0, ..., p-1} and counts as fixed or as r before it counts as s, so
    s is 0 when q is 0 or 1 or lies outside that range.
    """
    if sigma.p != p:
        raise ValueError(f"permutation acts on {sigma.p} points, not {p}")
    d = [(image - j) % p for j, image in enumerate(sigma.images, 1)]
    fixed, r = d.count(0), d.count(1)
    s = 0 if q in (0, 1) else d.count(q)
    return (r, s, fixed) if r + s + fixed == p else None


class StructureReport(Record):
    """Shared cycle structure of every member of a nonempty class.

    ``k`` is the number of nontrivial cycles, ``cycles_each`` the
    (1-steps, q-steps) of each cycle.
    """

    __slots__ = ("k", "cycles_each", "sign")

    def fits(self, cycles, p: int, q: int) -> bool:
        """Whether a member with these nontrivial cycles has this structure.

        True when there are ``k`` cycles, each cycle takes exactly
        ``cycles_each`` steps of 1 and of q (mod p) and no other step,
        and the sign read off the cycles is ``sign``.  The package's
        one check of a member against its class's structure.
        """
        if len(cycles) != self.k:
            return False
        ones, qs = self.cycles_each
        for cyc in cycles:
            if len(cyc) != ones + qs:
                return False
            steps = [(b - a) % p for a, b in zip(cyc, cyc[1:] + cyc[:1])]
            if steps.count(1) != ones or steps.count(q) != qs:
                return False
        return _cycle_sign(cycles) == self.sign


def predict_structure(key: PermClassKey) -> StructureReport:
    """Cycle count, per-cycle step profile and sign of the class.

    k = gcd(r, s, ell) nontrivial cycles, each with r/k 1-steps and s/k
    q-steps, common sign (-1)^(r+s+k).  The identity class (0, 0) gets
    the degenerate report k=0, sign +1.  An empty class raises
    ValueError.
    """
    if key.is_empty:
        raise ValueError(f"{key} is an empty class: a(r, s) = 0")
    r, s = key.r, key.s
    if r == 0 and s == 0:
        return StructureReport(0, (0, 0), 1)
    k = key.k
    return StructureReport(k, (r // k, s // k), -1 if (r + s + k) % 2 else 1)


def enumerate_class(key: PermClassKey) -> list[Permutation]:
    """All members of the class, sorted by one-line notation (p <= 10).

    Read off :func:`enumerate_by_profile`, the search that the ``cycle``
    verify suite checks against brute force.
    """
    return enumerate_by_profile(key.p, key.q).get((key.r, key.s), [])


def enumerate_by_profile(p: int, q: int) -> dict[tuple[int, int], list[Permutation]]:
    """All displacement-constrained permutations grouped by (r, s).

    One search over the whole displacement product space (p <= 10),
    each group sorted by one-line notation.
    """
    if p > ENUMERATION_LIMIT:
        raise TooLarge(f"enumeration is limited to p <= {ENUMERATION_LIMIT}")
    out: dict[tuple[int, int], list[Permutation]] = {}
    images = [0] * p

    def walk(j: int, used: int, r: int, s: int) -> None:
        if j == p:
            out.setdefault((r, s), []).append(Permutation(images))
            return
        for d, dr, ds in ((0, 0, 0), (1, 1, 0), (q, 0, 1)):
            im = (j + d) % p
            bit = 1 << im
            if used & bit:
                continue
            images[j] = im + 1
            walk(j + 1, used | bit, r + dr, s + ds)

    walk(0, 0, 0, 0)
    for members in out.values():
        members.sort(key=lambda w: w.images)
    return out


# ---------------------------------------------------------------------------
# lattice paths
# ---------------------------------------------------------------------------

def _path_steps(r: int, s: int, east, north) -> list:
    """The steps of the path from (0, 0) to (r, s), each ``east`` or ``north``.

    The package's one statement of the path rule: from (x, y) step east
    when s*x <= r*y and north otherwise ("go east when weakly above the
    line s*x - r*y = 0"), with f = s*x - r*y kept as the path goes.  For
    r >= 1 this rule provably stays inside the box and ends at (r, s);
    for coprime r, s its word is a rotation of the Christoffel word of
    slope s/r.  For r = 0 the rule would step east off the vertical
    target line, so the forced all-north word is returned instead.
    """
    if r == 0:
        return [north] * s
    out = []
    f = 0
    for _ in range(r + s):
        if f <= 0:
            out.append(east)
            f += s
        else:
            out.append(north)
            f -= r
    return out


def build_path(r: int, s: int) -> str:
    """The E/N step word of the path from (0, 0) to (r, s) hugging s*x - r*y = 0.

    Its steps follow the rule stated in :func:`_path_steps`; for r = 0
    it is the all-north word.
    """
    if r < 0 or s < 0 or r + s < 1:
        raise ValueError("need r, s >= 0 with r + s >= 1")
    word = "".join(_path_steps(r, s, "E", "N"))
    if word.count("E") != r or word.count("N") != s:
        raise InternalInconsistency(f"path construction missed ({r}, {s})")
    return word


def path_bound_check(word: str, r: int, s: int) -> bool:
    """Whether |a*s - b*r| <= r+s-1 for every vertex pair of the path.

    The path takes the E (east) and N (north) steps of ``word`` from
    (0, 0); any other letter raises ValueError.  With (a, b) the pair's
    coordinate difference and f = s*x - r*y at each vertex, a*s - b*r
    is a difference of two values of f, so the largest pair gap is
    max(f) - min(f), read in one pass.  Holds for every constructed
    path; the empty word has no pair and always passes.
    """
    f = lo = hi = 0
    for ch in word:
        if ch == "E":
            f += s
        elif ch == "N":
            f -= r
        else:
            raise ValueError(f"step letter {ch!r} is not E or N")
        if f > hi:
            hi = f
        elif f < lo:
            lo = f
    return not word or hi - lo <= r + s - 1


# ---------------------------------------------------------------------------
# witness construction
# ---------------------------------------------------------------------------

def _walk_word(word, p: int) -> list[int]:
    # points visited by the word from 1; construct_witness builds every
    # word it walks, so a repeat before the end or an open end is
    # InternalInconsistency, and only a failed walk is rescanned to name
    # the first repeated point
    points = [1]
    v = 1
    for step in word:
        v = (v + step - 1) % p + 1
        points.append(v)
    end = points.pop()
    if len(set(points)) != len(points):
        seen = set()
        for v in points:
            if v in seen:
                raise InternalInconsistency(f"point {v} revisited before the word ended")
            seen.add(v)
    if end != 1:
        raise InternalInconsistency(f"word from 1 ends at {end}, not back at the start")
    return points


def construct_witness(key: PermClassKey) -> Permutation:
    """An explicit member of the class, built from the lattice path.

    With k = gcd(r, s, ell), the displacement word of the path to
    (r/k, s/k) is walked once, from point 1, checking that the cycle
    closes exactly when the word ends and visits no point twice.  The
    other k-1 cycles are that walk translated by j(q-1), j = 1, ...,
    k-1, reduced into {1, ..., p}: the walks of the word from
    1 + j(q-1).  The cycles are provably disjoint and their product is
    a class member.  One owner list re-checks disjointness as the
    images are written; with the walk's own check, that proves the
    images a bijection, so the member is built without the
    Permutation constructor's sort.  The displacement profile then
    re-checks the class.  An empty class raises ValueError, with
    :func:`predict_structure`'s text.
    """
    p, q, r, s = key.p, key.q, key.r, key.s
    if p > WITNESS_LIMIT:
        raise TooLarge(f"witness construction is limited to p <= {WITNESS_LIMIT}")
    if key.is_empty:
        raise ValueError(f"{key} is an empty class: a(r, s) = 0")
    if r == 0 and s == 0:
        return Permutation.identity(p)
    k = key.k
    walk = _walk_word(_path_steps(r // k, s // k, 1, q), p)
    images = list(range(p + 1))  # images[a] is the image of a; 0 is unused
    owner = bytearray(p + 1)  # 1 where a cycle already moves the point
    n = len(walk)
    for j in range(k):
        shift = j * (q - 1)
        cycle = [(v + shift - 1) % p + 1 for v in walk] if j else walk
        # each point in walk order, sent to the next, the last to the first
        for i, a in enumerate(cycle, 1 - n):
            if owner[a]:
                raise InternalInconsistency(
                    f"witness cycles for {key} are not disjoint at point {a}"
                )
            owner[a] = 1
            images[a] = cycle[i]
    del images[0]
    sigma = Permutation._proven(tuple(images))
    if displacement_profile(sigma, p, q) != (r, s, p - r - s):
        raise InternalInconsistency(f"witness for {key} has the wrong profile")
    return sigma

