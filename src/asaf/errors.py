"""Exception types shared across the package.

Plain ValueError/TypeError are used for ordinary bad arguments; the classes
here exist where callers (in particular the CLI) need to tell failure modes
apart.
"""


class ConfigError(ValueError):
    """A run-config file or config object is malformed or inconsistent."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(ValueError):
    """Inputs are well-formed but violate a semantic contract."""


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
