"""Exact sparse arithmetic for bivariate polynomials over the integers.

A polynomial in x and y is stored as a mapping from exponent pairs
(r, s) to nonzero arbitrary-precision integer coefficients.  Values are
immutable after construction; every operation returns a new polynomial
in canonical form (no stored zero coefficient), so instances can be
shared across threads or processes without coordination.

Two term orders matter:

* the canonical order -- (total degree, x-exponent, y-exponent) -- is a
  proper monomial order and drives :meth:`BiPoly.items` and JSON
  serialization;
* the display order -- (y-exponent, x-exponent) -- groups terms the way
  the text renderer prints them, constant first, pure-x terms next.
"""

from types import MappingProxyType
from typing import Iterator, NamedTuple

from .errors import NonExactDivision


class Monomial(NamedTuple):
    """An exponent pair x^r * y^s; ``sort_key`` gives the canonical order."""

    r: int
    s: int

    def sort_key(self) -> tuple[int, int, int]:
        return (self.r + self.s, self.r, self.s)


def _display_key(m: Monomial) -> tuple[int, int]:
    return (m.s, m.r)


class BiPoly:
    """A sparse bivariate polynomial with integer coefficients, from {(r, s): c}."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        canon: dict[Monomial, int] = {}
        if terms is not None:
            try:
                items = terms.items()
            except AttributeError:
                raise TypeError(
                    f"BiPoly takes a mapping {{(r, s): c}}, not {type(terms).__name__}"
                ) from None
            for key, c in items:
                if c == 0:
                    continue
                r, s = key
                if r < 0 or s < 0:
                    raise ValueError(f"negative exponent in monomial {key!r}")
                canon[Monomial(r, s)] = c
        self._terms = canon

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, c: int) -> "BiPoly":
        return cls({Monomial(0, 0): c})

    @classmethod
    def monomial(cls, c: int, r: int, s: int) -> "BiPoly":
        return cls({Monomial(r, s): c})

    # -- inspection ---------------------------------------------------

    @property
    def terms(self) -> "MappingProxyType[Monomial, int]":
        """The term map as a read-only view."""
        return MappingProxyType(self._terms)

    def items(self) -> Iterator[tuple[Monomial, int]]:
        """Terms in canonical order."""
        terms = self._terms
        return ((m, terms[m]) for m in sorted(terms, key=Monomial.sort_key))

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def coefficient(self, r: int, s: int) -> int:
        # a Monomial hashes and compares as its plain tuple
        return self._terms.get((r, s), 0)

    def constant_term(self) -> int:
        return self._terms.get((0, 0), 0)

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "BiPoly":
        if not isinstance(other, BiPoly):
            return NotImplemented
        out = dict(self._terms)
        for m, c in other._terms.items():
            v = out.get(m, 0) + c
            if v:
                out[m] = v
            else:
                del out[m]
        return _wrap(out)

    def __neg__(self) -> "BiPoly":
        return _wrap({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "BiPoly":
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.__add__(-other)

    def __mul__(self, other) -> "BiPoly":
        if not isinstance(other, BiPoly):
            return NotImplemented
        out: dict = {}
        get = out.get
        for (r1, s1), c1 in self._terms.items():
            for (r2, s2), c2 in other._terms.items():
                k = (r1 + r2, s1 + s2)
                v = get(k, 0) + c1 * c2
                out[k] = v
        return BiPoly(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"BiPoly({self.render()!r})"

    # -- derived operations -------------------------------------------

    def evaluate(self, x0, y0):
        """Exact value at (x0, y0); exact for int/Fraction arguments."""
        total = 0
        for (r, s), c in self._terms.items():
            total += c * x0**r * y0**s
        return total

    def reduce_mod(self, m: int) -> "BiPoly":
        """Reduce every coefficient to its least nonnegative residue."""
        if m < 2:
            raise ValueError("modulus must be at least 2")
        return BiPoly({k: c % m for k, c in self._terms.items()})

    def termwise_abs(self) -> "BiPoly":
        return _wrap({m: abs(c) for m, c in self._terms.items()})

    def abs_coefficient_sum(self) -> int:
        return sum(abs(c) for c in self._terms.values())

    def max_abs_coefficient(self) -> int:
        return max(map(abs, self._terms.values()), default=0)

    # -- serialization ------------------------------------------------

    def render(self) -> str:
        """Text form, e.g. ``1 - x^8 - 8*x^5*y`` (display term order)."""
        if not self._terms:
            return "0"
        pieces = []
        for m in sorted(self._terms, key=_display_key):
            c = self._terms[m]
            mag = abs(c)
            factors = []
            if m.r:
                factors.append("x" if m.r == 1 else f"x^{m.r}")
            if m.s:
                factors.append("y" if m.s == 1 else f"y^{m.s}")
            if not factors or mag != 1:
                factors.insert(0, str(mag))
            body = "*".join(factors)
            if not pieces:
                pieces.append(f"-{body}" if c < 0 else body)
            else:
                pieces.append(f"{' - ' if c < 0 else ' + '}{body}")
        return "".join(pieces)

    def to_json_dict(self) -> dict:
        """JSON form with decimal-string coefficients, canonical order."""
        return {
            "terms": [
                {"r": m.r, "s": m.s, "c": str(c)} for m, c in self.items()
            ]
        }


def _wrap(canon: dict) -> BiPoly:
    # internal: keys are already Monomial instances and values nonzero
    p = BiPoly.__new__(BiPoly)
    p._terms = canon
    return p


ZERO = BiPoly()
ONE = BiPoly.constant(1)
X = BiPoly.monomial(1, 1, 0)
Y = BiPoly.monomial(1, 0, 1)


def exact_div(a: BiPoly, b: BiPoly) -> BiPoly:
    """Quotient q with q*b == a, for a divisor b with constant term 1.

    Power-series division: with b = 1 + b', the dividend is taken by
    increasing total degree; what is left at degree d is the quotient's
    degree-d part, and subtracting it times b' touches only higher
    degrees.  Anything left past deg(a) - deg(b) raises
    :class:`NonExactDivision`, since a wrong-but-silent quotient would
    corrupt every determinant built on it; any other nonzero divisor
    raises ValueError.
    """
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if b.constant_term() != 1:
        raise ValueError(f"divisor {b.render()} does not have constant term 1")
    if b == ONE or a.is_zero():
        return a
    rest = [(r, s, c) for (r, s), c in b._terms.items() if r or s]
    top = max(r + s for r, s in a._terms)
    last = top - max(r + s for r, s, _ in rest)
    rem = [{} for _ in range(top + 1)]
    for (r, s), c in a._terms.items():
        rem[r + s][r, s] = c
    quot = {}
    for d in range(last + 1):
        for (r, s), c in rem[d].items():
            quot[r, s] = c
            for br, bs, bc in rest:
                layer, k = rem[d + br + bs], (r + br, s + bs)
                layer[k] = layer.get(k, 0) - c * bc
    if any(any(layer.values()) for layer in rem[max(last + 1, 0):]):
        raise NonExactDivision(f"remainder left past the quotient's degree {last}")
    return BiPoly(quot)
