"""Exception types shared across the package.

Every failure is one of three kinds, each with its own CLI exit code:

* a :class:`ValueError` is a usage error (exit 2);
* :class:`TooLarge` or :class:`IrreducibleSpec` refuses an unsupported
  regime (exit 3);
* :class:`InternalInconsistency` is a failed internal check (exit 1).
"""


class InternalInconsistency(RuntimeError):
    """An internal check failed (two routes disagreed); indicates a bug."""


class NonExactDivision(InternalInconsistency):
    """An exact division left a nonzero remainder, which signals a bug."""


class IrreducibleSpec(ValueError):
    """Neither band offset of a circulant spec is invertible modulo p."""


class TooLarge(ValueError):
    """Input size exceeds a factorial/exponential-cost or work guard."""
