"""The determinant polynomial assembled through its structure theorems.

For canonical (p, q) the determinant of the three-band circulant is a
polynomial sum(a(r, s) x^r y^s) whose support, signs and magnitudes are
pinned down combinatorially:

* a monomial is present iff r+s <= p and p divides r+sq (for s = 0 that
  forces r to be 0 or p);
* its sign is (-1)^gcd(r, s, (r+sq)/p);
* its magnitude counts the permutations of the matching displacement
  class.

``coefficient`` always recomputes the sign from the gcd rule and
cross-checks it against the selected determinant backend, so the sign
theorem doubles as a permanent regression test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .bipoly import ONE, BiPoly
from .circulant import (
    CirculantSpec,
    det_bareiss,
    det_bruteforce,
    det_cycle_cover,
    det_newton,
)
from .errors import InternalInconsistency
from .permclass import PermClassKey

BACKENDS: dict[str, Callable[[CirculantSpec], BiPoly]] = {
    "newton": det_newton,
    "bareiss": det_bareiss,
    "cycle_cover": det_cycle_cover,
    "bruteforce": det_bruteforce,
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

    True iff r+s <= p and p divides r+sq (:attr:`PermClassKey.is_empty`).
    """
    return not PermClassKey(p, q, r, s).is_empty


@dataclass(frozen=True)
class CoefficientReport:
    """Everything known about one coefficient a(r, s).

    For absent monomials the derived fields ell, k and sign are None
    and magnitude = value = 0.  Otherwise value = sign * magnitude and
    sign is +1 exactly when gcd(r, s, ell) is even.
    """

    p: int
    q: int
    r: int
    s: int
    present: bool
    ell: Optional[int]
    k: Optional[int]
    sign: Optional[int]
    magnitude: int
    value: int

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
    """(x + y)^p expanded by binomial coefficients."""
    return BiPoly({(r, p - r): math.comb(p, r) for r in range(p + 1)})


def primality_check(p: int, q: int = 2) -> bool:
    """Whether 1 minus the determinant polynomial is (x+y)^p mod p.

    With the fixed default q = 2 (reported by the CLI) the congruence
    holds iff p is prime on the whole verified range.  The choice of q
    matters: some composite p pass the congruence for other q (p = 9
    with q = 4, for instance), so callers overriding q lose the
    equivalence.  The polynomial comes from the default route.
    """
    if p < 3:
        raise ValueError("p must be at least 3")
    f = ONE - phi_polynomial(p, q)
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
