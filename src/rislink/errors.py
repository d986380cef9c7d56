"""Exception types shared across the package, and the one range rule.

The CLI maps these onto exit codes, so library code should raise one of
them (or a subclass) rather than bare ValueError/RuntimeError.
"""

import math


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""


class NumericError(RuntimeError):
    """A numerical routine failed to reach its accuracy target."""


class ConfigError(ValueError):
    """A configuration document or CLI argument set is invalid."""


def positive(x, what: str, error: type[Exception] = DomainError):
    """x itself, when it is a positive finite double; otherwise ``error``
    naming ``what`` and x.  nan fails too."""
    if not 0.0 < x < math.inf:
        raise error(f"{what} is {x!r}, outside the positive finite doubles")
    return x
