"""Exception types shared across the package."""


class NonExactDivision(ArithmeticError):
    """Polynomial division left a nonzero remainder.

    Raised by exact division when the divisor does not divide the
    dividend in the integer polynomial ring.  Inside fraction-free
    elimination this always signals a bug, never bad input, so callers
    must not swallow it.
    """


class IrreducibleSpec(ValueError):
    """Neither band offset of a circulant spec is invertible modulo p."""


class StateSpaceTooLarge(ValueError):
    """The estimated work of the counting DP exceeds its budget."""


class TooLarge(ValueError):
    """Input size exceeds a factorial/exponential-cost guard."""


class EmptyClass(ValueError):
    """The requested permutation class is empty (p does not divide r+sq)."""


class InvalidKey(ValueError):
    """Class parameters are structurally impossible (e.g. r+s > p)."""


class InternalInconsistency(RuntimeError):
    """Two independent computation routes disagreed; indicates a bug."""
