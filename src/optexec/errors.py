"""Exception types shared across the library and mapped to CLI exit codes,
and the one finiteness check on library arguments."""

import math


class ConfigError(Exception):
    """Bad or missing configuration (CLI exit code 2)."""


class HypothesisViolation(Exception):
    """A closed-form result was requested outside its range of validity (CLI exit code 3)."""


class NumericalFailure(Exception):
    """An iteration failed to converge or a solve blew up (CLI exit code 4)."""


def require_finite(**named) -> None:
    """ValueError naming the first argument that is NaN or infinite."""
    for name, v in named.items():
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
