"""The circulant spec, its determinant by Newton's identities, and the class rules.

The p-by-p circulant has 1 on the diagonal, -x on the cyclic band at
offset t and -y on the cyclic band at offset q (:class:`CirculantSpec`).
Re-indexing Z_p carries its determinant exactly onto that of a
canonical spec, t = 1, and :func:`canonical_images` is the package's
one table of these maps, with :func:`from_image` the way back:
:func:`reduce_theta` takes its first entry, and the cross-check routes
of :mod:`tricirc.circulant` run at the image they choose from it.

For canonical (p, q) the determinant is a polynomial
sum(a(r, s) x^r y^s) whose support, signs and magnitudes are pinned
down combinatorially:

* a monomial is present iff r+s <= p and p divides r+sq (for s = 0 that
  forces r to be 0 or p);
* its sign is (-1)^gcd(r, s, (r+sq)/p);
* its magnitude counts the permutations of the matching displacement
  class.

:class:`PermClassKey` is the package's one statement of these support
and sign rules and of which (p, q) are canonical.  The default route,
:func:`det_newton`, computes the polynomial from Newton's identities
over the closed-form power sums of :func:`power_sums`.  ``coefficient``
always recomputes the sign from the gcd rule and cross-checks it
against the selected determinant backend, so the sign theorem doubles
as a permanent regression test.

Everything that a ``phi`` or ``coeff`` job runs lives here, so such a
job compiles, besides the CLI, only this module, :mod:`tricirc.bipoly`
and :mod:`tricirc.errors`.  From the standard library this module takes
only :mod:`math` and :mod:`typing` (which ``bipoly`` loads anyway).
The cross-check backends of :data:`BACKENDS` (Bareiss, the cycle-cover
DP and brute force) live in :mod:`tricirc.circulant`, which is imported
on their first call; permutations, lattice paths and witnesses live in
:mod:`tricirc.permclass`.

:class:`Record` is the base of every report, key and path: one
constructor binds the fields a subclass names in ``__slots__``, so no
module imports :mod:`dataclasses`, whose import loads :mod:`inspect`
and costs more than the whole Newton computation of a small job.
"""

import math
from typing import Callable, NamedTuple, Optional

from .bipoly import ONE, BiPoly
from .errors import InternalInconsistency, IrreducibleSpec, NonExactDivision, TooLarge

#: largest p accepted by the Newton-identity route; at p = 1000, q = 500
#: is the slowest q (README: the limits table's row, and the in-process
#: times at q = 2 and q = 500 among the other measured times)
NEWTON_LIMIT = 1000


class Record:
    """Base of the package's immutable value classes, with dataclass value semantics.

    A subclass names its fields in ``__slots__`` and inherits one
    constructor: it takes the fields in ``__slots__`` order, by position
    or by keyword, and raises TypeError when a field is missing, unknown
    or given twice.  A subclass that validates or defaults its input
    defines an ``__init__`` that does so and then calls this one.  From
    the fields this class derives what ``@dataclass(frozen=True)``
    would: the repr ``Name(field=value, ...)``, equality only between
    instances of the same class (a plain tuple never equals a record),
    the hash of the field tuple, copying and pickling through the
    positional constructor, and AttributeError on assigning or deleting
    a field.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        if kwargs or len(args) != len(names):
            values = dict(zip(names, args))
            error = None
            if len(args) > len(names):
                error = f"takes {len(names)} fields but {len(args)} were given"
            for name, value in kwargs.items():
                if name in values:
                    error = f"got field {name!r} twice"
                elif name not in names:
                    error = f"has no field {name!r}"
                values[name] = value
            if error is None and len(values) < len(names):
                error = f"is missing fields {[n for n in names if n not in values]}"
            if error is not None:
                raise TypeError(f"{self.__class__.__qualname__}() {error}")
            args = [values[name] for name in names]
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return (self.__class__, self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# the circulant and its canonical form
# ---------------------------------------------------------------------------

class CirculantSpec(Record):
    """Parameters (p, q, t) of the three-band circulant.

    Canonical specs have t=1 and 2 <= q <= p-1; non-canonical specs are
    accepted only as input to :func:`reduce_theta`, so t or q must be
    invertible modulo p (:class:`IrreducibleSpec` otherwise, checked
    before the next rule), even where :func:`canonical_images` has a
    route that moves the band of 1 off offset 0.  The three band
    offsets 0, t, q must be pairwise distinct.
    """

    __slots__ = ("p", "q", "t")

    def __init__(self, p: int, q: int, t: int = 1):
        if p < 3:
            raise ValueError(f"p must be at least 3, got {p}")
        if not 1 <= q < p:
            raise ValueError(f"q must lie in [1, p-1], got q={q}")
        if not 1 <= t < p:
            raise ValueError(f"t must lie in [1, p-1], got t={t}")
        if math.gcd(t, p) > 1 and math.gcd(q, p) > 1:
            raise IrreducibleSpec(
                f"gcd(t={t}, p={p}) > 1 and "
                f"gcd(q={q}, p={p}) > 1: no canonical form is known"
            )
        if t == q:
            raise ValueError("band offsets t and q must be distinct")
        Record.__init__(self, p, q, t)

    @property
    def is_canonical(self) -> bool:
        return self.t == 1 and self.q >= 2


class ReducedSpec(NamedTuple):
    """Result of :func:`reduce_theta`."""

    spec: CirculantSpec
    swapped: bool  # True when the x and y roles were exchanged


def reduce_theta(spec: CirculantSpec) -> ReducedSpec:
    """Rewrite a general (p, q, t) spec in the canonical form t=1.

    The first entry of :func:`canonical_images`: the band of 1 stays at
    offset 0, and x moves to offset 1 (q' = q/t mod p) when
    gcd(t, p) = 1, else y does (q' = t/q, flagged in the result as x
    and y exchanged).
    """
    qp, (order, _) = next(iter(canonical_images(spec.p, spec.q, spec.t).items()))
    return ReducedSpec(CirculantSpec(spec.p, qp), order == "zyx")


def canonical_images(p: int, q: int, t: int = 1) -> dict[int, tuple[str, int]]:
    """Every canonical q' whose determinant gives that of (p, q, t), with the way back.

    Homogenized, the determinant is prod_j (z - x w^(tj) - y w^(qj))
    over the p-th roots of unity w^j, with terms z^f x^r y^s where
    f = p - r - s.  Shifting every band by -c (a factor det(P^c) =
    (-1)^((p-1)c)) and re-indexing j by a unit of Z_p moves the bands
    at offsets c, c + d and c + e to 0, 1 and q' = e/d mod p, whenever
    d is a unit.  So each order of z (the band of 1), x and y over the
    offsets 0, 1 and q' whose first two bands differ by a unit gives an
    exact image.  Maps each q' to (order, c), with c the spec offset
    moved to 0, for the first order that reaches it; the orders that
    keep z at 0 come first, so the first entry is :func:`reduce_theta`'s.
    For canonical (p, q) the images are those of q, 1/q, 1-q, 1/(1-q),
    (q-1)/q and q/(q-1) that exist, at most six.  :func:`from_image`
    maps an image's terms back.
    """
    offsets = {"z": 0, "x": t, "y": q}
    out: dict[int, tuple[str, int]] = {}
    for order in ("zxy", "zyx", "xzy", "xyz", "yzx", "yxz"):
        c = offsets[order[0]]
        d = offsets[order[1]] - c
        if math.gcd(d, p) == 1:
            out.setdefault((offsets[order[2]] - c) * pow(d, -1, p) % p, (order, c))
    return out


def from_image(terms, p: int, way: tuple[str, int]) -> BiPoly:
    """The polynomial of a spec from the terms of its image.

    ``terms`` maps (r', s') to the image's coefficient, and ``way`` is
    the image's entry of :func:`canonical_images`.  The exponents follow
    the variables: the bands of the order at offsets 0, 1 and q' take the
    image's exponents f', r' and s'.  A coefficient also takes the
    sign (-1)^(f' + e_z + (p-1)c), where e_z is the exponent z lands
    on: a band -x or -y at offset 0 stands where the image has +z, z
    stands where it has -x or -y, and the shift gives det(P^c).  With
    z at 0 that sign is +1.  Unsigned counts map back through the same
    signs and take :meth:`BiPoly.termwise_abs` of the result.
    """
    order, c = way
    ix, iy, iz = order.index("x"), order.index("y"), order.index("z")
    flip = (p - 1) * c
    out = {}
    for (r, s), v in terms.items():
        e = (p - r - s, r, s)
        if (e[0] + e[iz] + flip) % 2:
            v = -v
        out[e[ix], e[iy]] = v
    return BiPoly(out)


def _require_canonical(spec: CirculantSpec) -> None:
    if not spec.is_canonical:
        raise ValueError(
            f"{spec} is not canonical; apply reduce_theta first"
        )


# ---------------------------------------------------------------------------
# Newton's identities over closed-form power sums
# ---------------------------------------------------------------------------

def power_sums(p: int, q: int) -> dict[int, dict[int, int]]:
    """The nonzero power sums tr(A^i), 1 <= i <= p, of A = xP + yP^q.

    P is the cyclic shift, so tr(P^k) is p when p divides k and 0
    otherwise, and the binomial theorem gives
    tr(A^i) = p * sum C(i, s) x^(i-s) y^s over the s in [0, i] with
    p | i + s(q-1).  Maps i to {s: coefficient}; the x-exponent is i-s.
    """
    g = math.gcd(q - 1, p)
    m = p // g
    inv = pow((q - 1) // g, -1, m)
    sums = {}
    for i in range(g, p + 1, g):  # the s exist only where g divides i
        s0 = -(i // g) * inv % m
        if s0 <= i:
            sums[i] = {s: p * math.comb(i, s) for s in range(s0, i + 1, m)}
    return sums


def det_newton(spec: CirculantSpec) -> BiPoly:
    """Exact determinant from Newton's identities.

    det(I - A) = sum (-1)^t e_t, where e_t is the t-th elementary
    symmetric function of the eigenvalues of A = xP + yP^q and is
    homogeneous of degree t.  Newton's identities
    t e_t = sum_{i=1..t} (-1)^(i-1) e_(t-i) tr(A^i) give the signed
    slices c_t = (-1)^t e_t as t c_t = -sum_{i=1..t} c_(t-i) tr(A^i).
    Every slice is stored by y-exponent alone and has only the few terms
    the support theorem allows, so the cost is polynomial in p for every
    q.  Once slice t is known it adds c_t tr(A^i) to the sum of every
    later slice t + i, so an empty slice, as most are, costs nothing.
    Each division by t must be exact (:class:`NonExactDivision`
    otherwise), and the unit constant term is checked as in Bareiss.
    """
    _require_canonical(spec)
    p, q = spec.p, spec.q
    if p > NEWTON_LIMIT:
        raise TooLarge(f"Newton's identities are limited to p <= {NEWTON_LIMIT}")
    sums = [(i, list(ps.items())) for i, ps in power_sums(p, q).items()]
    # acc[t] collects sum_i c_(t-i) tr(A^i) from the slices already known
    acc: list[dict[int, int]] = [{} for _ in range(p + 1)]
    slices: list[dict[int, int]] = []
    for t in range(p + 1):
        ct = {} if t else {0: 1}  # acc[0] is empty
        for s, v in acc[t].items():
            c, rem = divmod(-v, t)
            if rem:
                raise NonExactDivision(
                    f"{t} does not divide the coefficient {-v} of "
                    f"x^{t - s}*y^{s} in t*c_t for {spec}"
                )
            if c:
                ct[s] = c
        slices.append(ct)
        if not ct:
            continue
        for i, ps in sums:
            if t + i > p:
                break
            later = acc[t + i]
            for s1, c1 in ct.items():
                for s2, c2 in ps:
                    k = s1 + s2
                    later[k] = later.get(k, 0) + c1 * c2
    det = BiPoly(
        {(t - s, s): c for t, ct in enumerate(slices) for s, c in ct.items()}
    )
    if det.constant_term() != 1:
        raise InternalInconsistency("determinant lost its unit constant term")
    return det


# ---------------------------------------------------------------------------
# the class key: support and sign rules
# ---------------------------------------------------------------------------

class PermClassKey(Record):
    """Identifies the class of profile (r, s) inside (p, q).

    The class collects the permutations of {1, ..., p} whose cyclic
    displacements take the value 1 exactly r times, q exactly s times
    and 0 elsewhere (see :mod:`tricirc.permclass`).  Derived
    quantities: ``ell`` = (r+sq)/p when p divides r+sq (None
    otherwise, and the class is empty), and ``k`` = gcd(r, s, ell), the
    number of nontrivial cycles of every member.  The identity-only
    class (0, 0) has ell = 0 and k = 0 by convention.  These properties
    are the package's one statement of the support and sign rules, and
    :meth:`check_pair` its one statement of which (p, q) are canonical.
    """

    __slots__ = ("p", "q", "r", "s")

    def __init__(self, p: int, q: int, r: int, s: int):
        self.check_pair(p, q)
        if r < 0 or s < 0:
            raise ValueError("r and s must be nonnegative")
        Record.__init__(self, p, q, r, s)

    @staticmethod
    def check_pair(p: int, q: int) -> None:
        """Raise ValueError unless (p, q) is canonical: p >= 3, 2 <= q <= p-1."""
        if p < 3 or not 2 <= q <= p - 1:
            raise ValueError(f"need p >= 3 and 2 <= q <= p-1, got p={p} q={q}")

    @property
    def divisible(self) -> bool:
        return (self.r + self.s * self.q) % self.p == 0

    @property
    def ell(self) -> Optional[int]:
        if not self.divisible:
            return None
        return (self.r + self.s * self.q) // self.p

    @property
    def k(self) -> Optional[int]:
        # gcd(r, s, ell), with r+sq formed once rather than once for
        # ``divisible`` and again for ``ell``
        r, s, p = self.r, self.s, self.p
        total = r + s * self.q
        return None if total % p else math.gcd(r, s, total // p)

    @staticmethod
    def present(p: int, q: int, r: int, s: int) -> bool:
        """The support theorem: a(r, s) != 0 iff r+s <= p and p divides r+sq.

        For s = 0 that leaves r = 0 and r = p.  It validates none of its
        arguments, so a loop over every (r, s) need not build a key.
        """
        return r + s <= p and (r + s * q) % p == 0

    @property
    def is_empty(self) -> bool:
        """Whether the class is empty, i.e. a(r, s) = 0 (:meth:`present`)."""
        return not self.present(self.p, self.q, self.r, self.s)

    @staticmethod
    def nonempty_profiles(p: int, q: int) -> list[tuple[int, int]]:
        """Every (r, s) whose class in (p, q) is nonempty, s ascending.

        The profiles that :attr:`is_empty` admits, listed without a key
        per (r, s): for each s, r runs from (-s*q) mod p in steps of p
        while r + s <= p.  Raises ValueError unless (p, q) is canonical.
        """
        PermClassKey.check_pair(p, q)
        out = []
        for s in range(p + 1):
            r = (-s * q) % p
            while r + s <= p:
                out.append((r, s))
                r += p
        return out

    @property
    def term_sign(self) -> Optional[int]:
        """The sign (-1)^k of a(r, s) in the determinant (None when ell is)."""
        k = self.k
        if k is None:
            return None
        return -1 if k % 2 else 1


# ---------------------------------------------------------------------------
# the determinant polynomial and its coefficients
# ---------------------------------------------------------------------------

def _cross_check(name: str) -> Callable[[CirculantSpec], BiPoly]:
    """The route ``name`` of :mod:`tricirc.circulant`, imported on first call.

    The function is looked up on the module at every call, so a
    rebinding of the module's name (as the benchmark's tracer does)
    is seen.
    """

    def route(spec: CirculantSpec) -> BiPoly:
        from . import circulant

        return getattr(circulant, name)(spec)

    return route


#: backend name -> route; only the default, Newton's identities, is
#: loaded with this module
BACKENDS: dict[str, Callable[[CirculantSpec], BiPoly]] = {
    "newton": det_newton,
    "bareiss": _cross_check("det_bareiss"),
    "cycle_cover": _cross_check("det_cycle_cover"),
    "bruteforce": _cross_check("det_bruteforce"),
}


def default_backend(p: int, q: int) -> str:
    """The backend used when none is named: Newton's identities, for every (p, q).

    The other backends are independent cross-checks and explicit choices.
    """
    return "newton"


def phi_polynomial(p: int, q: int, backend: Optional[str] = None) -> BiPoly:
    """The determinant polynomial of the canonical (p, q) circulant."""
    PermClassKey.check_pair(p, q)
    spec = CirculantSpec(p, q)
    name = backend or default_backend(p, q)
    try:
        fn = BACKENDS[name]
    except KeyError:
        raise ValueError(f"unknown backend {name!r}") from None
    return fn(spec)


def support(p: int, q: int, r: int, s: int) -> bool:
    """Whether the monomial x^r y^s has a nonzero coefficient.

    True iff r+s <= p and p divides r+sq (:meth:`PermClassKey.present`).
    ValueError unless (p, q) is canonical and r, s >= 0, as for a key.
    """
    PermClassKey.check_pair(p, q)
    if r < 0 or s < 0:
        raise ValueError("r and s must be nonnegative")
    return PermClassKey.present(p, q, r, s)


class CoefficientReport(Record):
    """Everything known about one coefficient a(r, s).

    For absent monomials the derived fields ell, k and sign are None
    and magnitude = value = 0.  Otherwise value = sign * magnitude and
    sign is +1 exactly when gcd(r, s, ell) is even.
    """

    __slots__ = (
        "p", "q", "r", "s", "present", "ell", "k", "sign", "magnitude", "value",
    )

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "r": self.r,
            "s": self.s,
            "present": self.present,
            "ell": self.ell,
            "k": self.k,
            "sign": self.sign,
            "magnitude": str(self.magnitude),
            "value": str(self.value),
        }


def coefficient(
    p: int, q: int, r: int, s: int, backend: Optional[str] = None
) -> CoefficientReport:
    """Full report on a(r, s), sign cross-checked against the backend.

    The magnitude comes from the backend polynomial; the sign comes
    independently from the gcd parity rule.  Any disagreement (or a
    zero coefficient where the support predicate says nonzero, and vice
    versa) raises :class:`InternalInconsistency`.
    """
    key = PermClassKey(p, q, r, s)
    present = not key.is_empty
    c = phi_polynomial(p, q, backend).coefficient(r, s)
    if not present:
        if c != 0:
            raise InternalInconsistency(
                f"support predicate says a({r},{s}) = 0 for (p={p}, q={q}) "
                f"but the backend found {c}"
            )
        return CoefficientReport(p, q, r, s, False, None, None, None, 0, 0)
    sign = key.term_sign
    if c == 0:
        raise InternalInconsistency(
            f"support predicate says a({r},{s}) != 0 for (p={p}, q={q}) "
            "but the backend found 0"
        )
    if (c > 0) != (sign > 0):
        raise InternalInconsistency(
            f"backend sign of a({r},{s}) = {c} contradicts the gcd rule "
            f"sign {sign} for (p={p}, q={q})"
        )
    return CoefficientReport(p, q, r, s, True, key.ell, key.k, sign, abs(c), c)


def binomial_power(p: int) -> BiPoly:
    """(x + y)^p expanded by binomial coefficients.

    Each coefficient comes from the one before it:
    C(p, r+1) = C(p, r) (p - r) / (r + 1), an exact division.
    """
    terms = {}
    c = 1
    for r in range(p + 1):
        terms[r, p - r] = c
        c = c * (p - r) // (r + 1)
    return BiPoly(terms)


#: the q of the primality congruence, recorded by the ``prime`` suite:
#: with q = 2 the congruence holds iff p is prime on the whole verified
#: range, while some composite p pass it for other q (p = 9 with q = 4)
PRIMALITY_Q = 2


def primality_check(p: int) -> bool:
    """Whether 1 minus the determinant polynomial is (x+y)^p mod p.

    The polynomial is the default route's at q = ``PRIMALITY_Q``.
    """
    if p < 3:
        raise ValueError("p must be at least 3")
    f = ONE - phi_polynomial(p, PRIMALITY_Q)
    diff = f - binomial_power(p)
    return diff.reduce_mod(p).is_zero()


def trial_division(n: int) -> bool:
    """Primality by trial division; the independent reference."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True
