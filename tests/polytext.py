"""Test helpers that read the text forms the tests write literals in.

``parse`` reads polynomial text, the inverse of ``BiPoly.render``, so
goldens and expected values can be written as they print.  ``path_from_word``
builds a lattice path from its E/N step letters.
"""

import re

from tricirc.bipoly import ZERO, BiPoly
from tricirc.permclass import LatticePath

# one factor of a term, e.g. "12", "x", "x^5", "y^2"
_FACTOR_RE = re.compile(r"^(?:(\d+)|([xy])(?:\^(\d+))?)$")


def parse(text: str) -> BiPoly:
    """Inverse of ``BiPoly.render``; accepts any whitespace spacing."""
    compact = text.replace(" ", "")
    if compact in ("", "0"):
        return ZERO
    out: dict[tuple[int, int], int] = {}
    pos = 0
    sign = 1
    if compact[0] in "+-":
        sign = -1 if compact[0] == "-" else 1
        pos = 1
    for tok in re.split(r"([+-])", compact[pos:]):
        if tok == "":
            raise ValueError(f"malformed polynomial text: {text!r}")
        if tok in "+-":
            sign = -1 if tok == "-" else 1
            continue
        coeff, r, s = 1, 0, 0
        saw_coeff = False
        for part in tok.split("*"):
            m = _FACTOR_RE.match(part)
            if m is None:
                raise ValueError(f"bad factor {part!r} in {text!r}")
            digits, var, exp = m.groups()
            if digits is not None:
                if saw_coeff:
                    raise ValueError(f"two coefficients in term {tok!r}")
                coeff = int(digits)
                saw_coeff = True
            elif var == "x":
                r += int(exp) if exp else 1
            else:
                s += int(exp) if exp else 1
        key = (r, s)
        out[key] = out.get(key, 0) + sign * coeff
        sign = 1
    return BiPoly(out)


def path_from_word(word: str) -> LatticePath:
    """The path from (0, 0) that takes the steps of a string of E/N letters."""
    x = y = 0
    verts = [(0, 0)]
    for ch in word:
        if ch == "E":
            x += 1
        elif ch == "N":
            y += 1
        else:
            raise ValueError(f"step letter {ch!r} is not E or N")
        verts.append((x, y))
    return LatticePath(tuple(verts))
