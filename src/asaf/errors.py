"""Exception types shared across the package, and ``check_count``, which
raises one where a count enters the library.

Plain ValueError/TypeError are used for ordinary bad arguments; the classes
here exist where callers (in particular the CLI) need to tell failure modes
apart.
"""

import numbers


class ConfigError(ValueError):
    """A run-config file or config object is malformed or inconsistent."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(ValueError):
    """Inputs are well-formed but violate a semantic contract; ``key`` names
    the config key a refusal is about, where there is one."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


def check_count(name: str, value, least: int) -> None:
    """Refuse a count below ``least`` or that is no Python or NumPy integer
    (``True`` and ``2.0`` compare equal to one)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}", key=name)
    if value < least:
        raise ValidationError(f"{name} must be >= {least}, got {value}", key=name)


class UnsupportedError(ValidationError):
    """A combination of components that is deliberately not supported."""


class FormatError(ValueError):
    """A file on disk does not match its documented layout."""


class CapacityError(ValidationError):
    """An exact computation would exceed its enumeration budget."""


class ShapeError(ValueError):
    """An array argument has the wrong shape for the operation."""


class TapeError(RuntimeError):
    """A backward pass was attempted against a stale or foreign tape."""


class NumericalError(FloatingPointError):
    """A non-finite value surfaced where the math requires finite ones."""
